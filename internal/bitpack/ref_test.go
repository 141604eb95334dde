package bitpack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refGet and refSet are the original bit-at-a-time codec, kept verbatim
// as the reference the word-level Get and Set must match bit for bit.
func refGet(b []byte, off, width int) uint64 {
	check(b, off, width)
	var v uint64
	for i := 0; i < width; i++ {
		bit := off + i
		if b[bit/8]&(1<<(bit%8)) != 0 {
			v |= 1 << i
		}
	}
	return v
}

func refSet(b []byte, off, width int, v uint64) {
	check(b, off, width)
	if width < 64 && v>>width != 0 {
		panic(fmt.Sprintf("bitpack: value %#x exceeds %d bits", v, width))
	}
	for i := 0; i < width; i++ {
		bit := off + i
		mask := byte(1 << (bit % 8))
		if v&(1<<i) != 0 {
			b[bit/8] |= mask
		} else {
			b[bit/8] &^= mask
		}
	}
}

// diffOne applies one Get and one Set through both codecs on twin copies
// of b and reports the first disagreement. Comparing whole slices after
// the Set checks the neighbours of the field as well as the field.
func diffOne(b []byte, off, width int, v uint64) error {
	if got, want := Get(b, off, width), refGet(b, off, width); got != want {
		return fmt.Errorf("len=%d off=%d width=%d: Get = %#x, reference %#x", len(b), off, width, got, want)
	}
	v &= mask(width)
	fast, ref := bytes.Clone(b), bytes.Clone(b)
	Set(fast, off, width, v)
	refSet(ref, off, width, v)
	if !bytes.Equal(fast, ref) {
		return fmt.Errorf("len=%d off=%d width=%d v=%#x: Set wrote %x, reference %x", len(b), off, width, v, fast, ref)
	}
	if got := Get(fast, off, width); got != v {
		return fmt.Errorf("len=%d off=%d width=%d: Get after Set = %#x, want %#x", len(b), off, width, got, v)
	}
	return nil
}

// TestMatchesReference drives the word-level codec against the reference
// over slice lengths 1..32 and every width that fits. Offsets are drawn
// so each length sees fields that spill into a ninth byte
// (off%8+width > 64), fields that start in the last 7 bytes (the
// byte-loop tail) and fields ending exactly at the slice end.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 32; n++ {
		b := make([]byte, n)
		for w := 1; w <= 64 && w <= 8*n; w++ {
			offs := []int{0, 8*n - w} // slice start and flush with the end
			if n >= 9 {
				for s := 65 - w; s < 8; s++ { // spill: off%8+w > 64
					offs = append(offs, 8*rng.Intn(n-8)+s)
				}
			}
			if lo := 8 * (n - 7); lo >= 0 && lo <= 8*n-w {
				offs = append(offs, lo+rng.Intn(8*n-w-lo+1)) // tail path
			}
			for k := 0; k < 4; k++ {
				offs = append(offs, rng.Intn(8*n-w+1))
			}
			for _, off := range offs {
				rng.Read(b)
				if err := diffOne(b, off, w, rng.Uint64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzBitpack checks Get and Set against the reference on fuzzer-chosen
// slices, offsets, widths and values.
func FuzzBitpack(f *testing.F) {
	seed := func(b []byte, off, width int, v uint64) { f.Add(b, uint16(off), uint8(width), v) }
	seed([]byte{0xFF}, 0, 1, 0)
	seed(bytes.Repeat([]byte{0xA5}, 9), 7, 64, 0xDEADBEEFCAFEF00D) // spill byte
	seed(bytes.Repeat([]byte{0x5A}, 16), 75, 50, 1<<49)            // tail path
	seed(make([]byte, 128), 945, 64, ^uint64(0))                   // PUB block tail
	seed(binary.LittleEndian.AppendUint64(nil, 1<<63), 63, 1, 0)
	f.Fuzz(func(t *testing.T, b []byte, off uint16, width uint8, v uint64) {
		if len(b) == 0 || len(b) > 512 {
			return
		}
		w := int(width)%64 + 1
		if w > 8*len(b) {
			w = 8 * len(b)
		}
		o := int(off) % (8*len(b) - w + 1)
		if err := diffOne(b, o, w, v); err != nil {
			t.Fatal(err)
		}
	})
}
