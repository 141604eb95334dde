package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
)

// faultTracer panics on the first event it sees and ignores the rest:
// an injected fault in the middle of one shard's service.
type faultTracer struct{ fired bool }

func (f *faultTracer) Emit(obs.Event) {
	if !f.fired {
		f.fired = true
		panic("injected fault")
	}
}

// faultyPool returns a 2-shard pool whose shard bad traces through a
// faultTracer.
func faultyPool(t *testing.T, bad int) *Pool {
	t.Helper()
	p, err := newPool(testConfig(128, 4096), 2, func(scfg config.Config, i int) (*core.Controller, error) {
		if i == bad {
			scfg.Tracer = &faultTracer{}
		}
		return core.New(scfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// within fails the test unless op returns before the deadline: a shard
// whose lock a panic leaked would block it forever.
func within(t *testing.T, what string, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not complete: shard lock leaked", what)
		return nil
	}
}

// checkPanicErr requires err to name the shard and the panic.
func checkPanicErr(t *testing.T, err error, shard int) {
	t.Helper()
	want := fmt.Sprintf("engine: shard %d: panic: injected fault", shard)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got error %v, want one containing %q", err, want)
	}
}

// TestPoolShardPanicContained makes one shard's service panic mid-op
// and requires the panic to surface as an error naming the shard, with
// the shard's lock released, no attribution span left installed on its
// controller, and every shard still serving afterwards.
func TestPoolShardPanicContained(t *testing.T) {
	t.Run("arrive", func(t *testing.T) {
		p := faultyPool(t, 1)
		bs := p.BlockSize()
		onBad := p.GroupBytes() // group 1 lives on shard 1
		data := bytes.Repeat([]byte{0x5a}, bs)
		var span obs.Span
		// Distinct blocks until the shard emits its first event (a PCB
		// flush or cache eviction a few writes in).
		var err error
		arrival := int64(0)
		for i := int64(0); i < 1000 && err == nil; i++ {
			arrival += 100
			_, err = p.WriteArriveSpan(arrival, onBad+i*int64(bs)%p.GroupBytes(), data, &span)
		}
		checkPanicErr(t, err, 1)
		if got := p.shards[1].ctl.Span(); got != nil {
			t.Fatal("the panicked op left its span installed on the controller")
		}
		err = within(t, "next op on the panicked shard", func() error {
			_, err := p.WriteArriveSpan(arrival+100, onBad, data, &span)
			return err
		})
		if err != nil {
			t.Fatalf("next op on the panicked shard: %v", err)
		}
		for _, addr := range []int64{0, onBad} {
			if err := within(t, "write", func() error { return p.Write(addr, data) }); err != nil {
				t.Fatalf("write %d after the panic: %v", addr, err)
			}
			got, err := p.Read(addr, bs)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read %d after the panic: %v", addr, err)
			}
		}
		if _, err := p.Stats(); err != nil {
			t.Fatalf("stats after the panic: %v", err)
		}
	})
	// PersistBatch runs the first busy shard's share on the caller and
	// the other's on a spawned goroutine: contain a panic on either.
	for _, bad := range []int{0, 1} {
		t.Run(fmt.Sprintf("batch-shard%d", bad), func(t *testing.T) {
			p := faultyPool(t, bad)
			bs := p.BlockSize()
			// Consecutive distinct blocks across both shards' groups,
			// enough that each shard emits its first event (a PCB flush
			// or cache eviction) inside the batch.
			reqs := make([]WriteReq, 512)
			for i := range reqs {
				reqs[i] = WriteReq{Addr: int64(i * bs), Data: make([]byte, bs)}
			}
			checkPanicErr(t, p.PersistBatch(reqs), bad)
			if err := within(t, "next batch", func() error { return p.PersistBatch(reqs) }); err != nil {
				t.Fatalf("next batch after the panic: %v", err)
			}
			if _, err := p.Shutdown(); err != nil {
				t.Fatalf("shutdown after the panic: %v", err)
			}
		})
	}
}

// TestPoolArriveZeroAlloc pins the steady-state cost of the inline op
// path: a single-block timed write and read on a 2-shard pool make no
// allocation, with attribution off (nil span) and on.
func TestPoolArriveZeroAlloc(t *testing.T) {
	p, err := New(testConfig(128, 4096), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	bs := p.BlockSize()
	data := make([]byte, bs)
	dst := make([]byte, bs)
	addrs := []int64{0, p.GroupBytes()} // one block on each shard
	for _, tc := range []struct {
		name string
		span *obs.Span
	}{{"nil-span", nil}, {"span", new(obs.Span)}} {
		t.Run(tc.name, func(t *testing.T) {
			var arrival int64
			op := func() {
				for _, addr := range addrs {
					arrival += 1000
					data[0]++
					if _, err := p.WriteArriveSpan(arrival, addr, data, tc.span); err != nil {
						t.Fatal(err)
					}
					if _, err := p.ReadArriveSpan(arrival, addr, dst, tc.span); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm the caches and the PCB; the minor counters overflow
			// every 127 writes, so the page re-encryption path is hot too.
			for i := 0; i < 2000; i++ {
				op()
			}
			if n := testing.AllocsPerRun(500, op); n != 0 {
				t.Errorf("%.2f allocs per write+read pair on each shard, want 0", n)
			}
		})
	}
}
