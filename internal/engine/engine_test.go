package engine

import (
	"bytes"
	"fmt"
	"reflect"
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
			_, err = p.WriteArrive(arrival, onBad+i*int64(bs)%p.GroupBytes(), data, &span)
		}
		checkPanicErr(t, err, 1)
		if got := p.shards[1].ctl.Span(); got != nil {
			t.Fatal("the panicked op left its span installed on the controller")
		}
		err = within(t, "next op on the panicked shard", func() error {
			_, err := p.WriteArrive(arrival+100, onBad, data, &span)
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
					if _, err := p.WriteArrive(arrival, addr, data, tc.span); err != nil {
						t.Fatal(err)
					}
					if _, err := p.ReadArrive(arrival, addr, dst, tc.span); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm the caches and the PCB; the minor counters overflow
			// every 127 writes, so the page re-encryption path is hot too.
			for i := 0; i < 2000; i++ {
				op()
			}
			// AllocsPerRun truncates its mean to a whole number, so each
			// run is a batch of 64 ops (16 write+read pairs on each
			// shard), and one allocation in every batch fails.
			const pairs = 16
			if n := testing.AllocsPerRun(100, func() {
				for range pairs {
					op()
				}
			}); n != 0 {
				t.Errorf("%.3f allocs per op, want 0", n/(pairs*4))
			}
		})
	}
}

// TestPoolInspection pins the per-shard accessors behind System's
// Device, Root and FlightRecord: each answers for its own shard, and
// after a crash they match what the returned image carries.
func TestPoolInspection(t *testing.T) {
	p, err := New(testConfig(128, 4096), 2)
	if err != nil {
		t.Fatal(err)
	}
	root0, root1 := p.Root(0), p.Root(1)
	// Group 1 lives on shard 1.
	if err := p.Write(p.GroupBytes(), bytes.Repeat([]byte{0x5a}, p.BlockSize())); err != nil {
		t.Fatal(err)
	}
	if p.Root(0) != root0 || p.Root(1) == root1 {
		t.Fatalf("a write to shard 1 moved roots %#x->%#x (shard 0) and %#x->%#x (shard 1)",
			root0, p.Root(0), root1, p.Root(1))
	}
	img, err := p.Crash()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Shards(); i++ {
		if p.Device(i) != img.Devices[i] {
			t.Fatalf("shard %d: Device is not the crash image's device", i)
		}
		if got := p.FlightRecord(i); !reflect.DeepEqual(got, img.Flights[i]) {
			t.Fatalf("shard %d: FlightRecord after the crash differs from the image's", i)
		}
	}
	if len(img.Flights[1].Events) == 0 {
		t.Fatal("the written shard's flight record is empty")
	}
}
