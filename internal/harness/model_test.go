package harness

import (
	"testing"

	"repro/internal/config"
)

// TestVerifyAllVisitsPersistedInOrder persists blocks on both sides of
// a model-page boundary, in scrambled order and some twice, and checks
// that the persisted set is walked once per block in ascending address
// order and that VerifyAll checks exactly those blocks.
func TestVerifyAllVisitsPersistedInOrder(t *testing.T) {
	cfg := tinyScale().apply(config.Default().WithScheme(config.ThothWTSC))
	r, err := NewRunner(RunConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	bs := int64(cfg.BlockSize)
	const pb = modelPageBlocks
	blocks := []int64{pb + 1, 3, pb - 1, 5*pb + 7, pb, 0, pb - 2, pb + 1, 3}
	for _, b := range blocks {
		r.Store(b*bs, bs)
		r.Persist(b*bs, bs)
	}
	r.Store(2*pb*bs, bs) // stored, never persisted: not walked
	r.Fence()

	want := []int64{0, 3, pb - 2, pb - 1, pb, pb + 1, 5*pb + 7}
	var got []int64
	if err := r.model.eachPersisted(func(addr int64) error {
		got = append(got, addr/bs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("walked blocks %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walked blocks %v, want %v", got, want)
		}
	}
	n, err := r.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("VerifyAll checked %d blocks, want %d", n, len(want))
	}
}
