// kvstore: a crash-safe persistent key-value store built on the thoth
// public API — the kind of application the paper's introduction
// motivates (persistent database workloads on secure NVM).
//
// Layout on the protected data region:
//
//	[0, 8)                  record count (header)
//	[4096 + i*256, ...)     record i: 8B key length + key + 8B value
//	                        length + value, one 256B slot each
//
// Durability discipline: the record slot is written (and made durable by
// the secure controller) before the header that publishes it — the same
// write-ordering argument persistent applications make on real NVM. A
// crash between the two writes loses the unpublished record but never
// corrupts the store.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	thoth "repro"
)

const (
	headerAddr = 0
	slotBase   = 4096
	slotSize   = 256
)

// store is a tiny append-only KV store over a thoth.System.
type store struct {
	sys *thoth.System
}

func open(sys *thoth.System) *store { return &store{sys: sys} }

func (s *store) count() (uint64, error) {
	b, err := s.sys.Read(headerAddr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Put appends a record and publishes it. Persist ordering: slot first,
// header second.
func (s *store) Put(key, value string) error {
	if len(key)+len(value)+16 > slotSize {
		return fmt.Errorf("kvstore: record too large for a %dB slot", slotSize)
	}
	n, err := s.count()
	if err != nil {
		return err
	}
	rec := make([]byte, slotSize)
	binary.LittleEndian.PutUint64(rec[0:8], uint64(len(key)))
	copy(rec[8:], key)
	off := 8 + len(key)
	binary.LittleEndian.PutUint64(rec[off:off+8], uint64(len(value)))
	copy(rec[off+8:], value)

	if err := s.sys.Write(slotBase+int64(n)*slotSize, rec); err != nil {
		return err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint64(hdr, n+1)
	return s.sys.Write(headerAddr, hdr)
}

// Get scans newest-first so later Puts shadow earlier ones.
func (s *store) Get(key string) (string, bool, error) {
	n, err := s.count()
	if err != nil {
		return "", false, err
	}
	for i := int64(n) - 1; i >= 0; i-- {
		rec, err := s.sys.Read(slotBase+i*slotSize, slotSize)
		if err != nil {
			return "", false, err
		}
		kl := binary.LittleEndian.Uint64(rec[0:8])
		if kl > slotSize {
			return "", false, fmt.Errorf("kvstore: corrupt record %d", i)
		}
		k := string(rec[8 : 8+kl])
		if k != key {
			continue
		}
		off := 8 + kl
		vl := binary.LittleEndian.Uint64(rec[off : off+8])
		return string(rec[off+8 : off+8+vl]), true, nil
	}
	return "", false, nil
}

func main() {
	cfg := thoth.DefaultConfig()
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = 1 << 20

	sys, err := thoth.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	kv := open(sys)

	// Put in a fixed order: the order decides the log layout, and with
	// it the NVM read count printed below.
	pairs := [][2]string{
		{"paper", "Thoth, HPCA 2023"},
		{"problem", "no host-visible ECC bits to co-locate metadata"},
		{"design", "PCB coalescing + off-chip PUB with WTSC eviction"},
		{"design", "PCB + PUB (updated)"}, // shadows the earlier value
	}
	for _, p := range pairs {
		if err := kv.Put(p[0], p[1]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("stored", len(pairs), "records")

	// Crash mid-life, recover, reopen — the store must be intact.
	img, err := sys.Crash()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := thoth.Recover(cfg, img); err != nil {
		log.Fatal(err)
	}
	sys2, err := thoth.Open(cfg, img)
	if err != nil {
		log.Fatal(err)
	}
	kv2 := open(sys2)

	for _, k := range []string{"paper", "problem", "design", "missing"} {
		v, ok, err := kv2.Get(k)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("  %-8s = %s\n", k, v)
		} else {
			fmt.Printf("  %-8s   (not found)\n", k)
		}
	}

	st := sys2.Stats()
	fmt.Printf("post-recovery reads verified against MACs; NVM reads=%d\n", st.NVMReads)
}
