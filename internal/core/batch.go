package core

import "fmt"

// WriteReq is one full-block persist request of a batch: an absolute
// (layout) block-aligned data address and exactly one block of
// plaintext. The plaintext is only read, never retained, and each
// request encrypts its own payload — the same address may appear more
// than once in a batch.
type WriteReq struct {
	Addr int64
	Data []byte
}

// PersistBatch persists a batch of full-block writes: it validates every
// request, then persists each one with PersistBlock in submission order
// with chained completion times (exactly what System.Write does).
// Requests are durable in order; t is the start cycle of the first
// request and the returned cycle is when the last request is durable.
func (c *Controller) PersistBatch(t int64, reqs []WriteReq) int64 {
	c.checkAlive()
	for i := range reqs {
		if len(reqs[i].Data) != c.cfg.BlockSize {
			panic(fmt.Sprintf("core: batch request %d persists %d bytes, block size is %d",
				i, len(reqs[i].Data), c.cfg.BlockSize))
		}
	}
	for i := range reqs {
		t = c.PersistBlock(t, reqs[i].Addr, reqs[i].Data)
	}
	return t
}
