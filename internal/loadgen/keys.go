package loadgen

import (
	"fmt"
	"math"
	"sort"
)

// KeyKind selects a tenant's key-space access pattern. Keys are block
// indices into the tenant's private partition of the data region (the
// driver maps them to disjoint absolute addresses).
type KeyKind uint8

const (
	// KeysUniform draws blocks uniformly over the partition.
	KeysUniform KeyKind = iota
	// KeysZipfian draws blocks Zipf(s)-distributed: block 0 is the
	// hottest key, block 1 the second-hottest, and so on. The rank domain
	// is capped at maxZipfDomain; partitions larger than that concentrate
	// all traffic on the first maxZipfDomain blocks (hot-key skew is the
	// point of the pattern).
	KeysZipfian
	// KeysSequential scans the partition front to back, wrapping — the
	// streaming/scan pattern.
	KeysSequential
	// KeysStrided jumps a fixed block stride per access. With the
	// driver's default stride (one metadata group plus one block) every
	// consecutive access lands in a different metadata group, thrashing
	// the counter/MAC/tree caches — the adversarial metadata pattern.
	KeysStrided
)

// String names the kind for reports.
func (k KeyKind) String() string {
	switch k {
	case KeysUniform:
		return "uniform"
	case KeysZipfian:
		return "zipfian"
	case KeysSequential:
		return "sequential"
	case KeysStrided:
		return "strided"
	default:
		return "keys?"
	}
}

// KeySpec declares the key-space pattern.
type KeySpec struct {
	Kind KeyKind
	// ZipfS is the Zipf skew parameter (> 0) for KeysZipfian; the
	// classic hot-key distribution uses s ≈ 1.
	ZipfS float64
}

// validate rejects unusable specs.
func (k KeySpec) validate() error {
	if k.Kind == KeysZipfian && k.ZipfS <= 0 {
		return fmt.Errorf("loadgen: zipfian keys need ZipfS > 0, got %g", k.ZipfS)
	}
	return nil
}

// maxZipfDomain caps the Zipf rank domain: the cumulative-weight table
// is O(domain) floats, and ranks past ~64k carry vanishing probability
// at any skew worth modeling.
const maxZipfDomain = 64 << 10

// zipfTable is a precomputed inverse-CDF table for Zipf(s) over ranks
// [0, n): cum[i] holds the cumulative weight through rank i. One table
// is shared by every tenant of a scenario (tenants draw from their own
// rng streams but the distribution is identical).
type zipfTable struct {
	cum []float64
}

// newZipfTable builds the table for n ranks at skew s.
func newZipfTable(n int, s float64) *zipfTable {
	if n > maxZipfDomain {
		n = maxZipfDomain
	}
	t := &zipfTable{cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		t.cum[i] = total
	}
	return t
}

// rank maps a uniform u in (0,1) to a Zipf rank by inverse-CDF binary
// search.
func (t *zipfTable) rank(u float64) int64 {
	target := u * t.cum[len(t.cum)-1]
	return int64(sort.SearchFloat64s(t.cum, target))
}

// keyPicker is one tenant's key chooser over its nKeys-block partition.
type keyPicker struct {
	spec   KeySpec
	zipf   *zipfTable // shared across tenants, nil unless zipfian
	nKeys  int64
	stride int64
	pos    int64
}

// newKeyPicker builds the chooser. stride is the block stride for
// KeysStrided (the driver passes one metadata group plus one block); it
// is forced co-prime with nKeys so the walk covers the whole partition.
func newKeyPicker(spec KeySpec, zipf *zipfTable, nKeys, stride int64) keyPicker {
	if stride <= 0 {
		stride = 1
	}
	stride %= nKeys
	if stride == 0 {
		stride = 1
	}
	for gcd(stride, nKeys) != 1 {
		stride++
	}
	return keyPicker{spec: spec, zipf: zipf, nKeys: nKeys, stride: stride}
}

// pick returns the next block index in [0, nKeys).
func (k *keyPicker) pick(r *rng) int64 {
	switch k.spec.Kind {
	case KeysZipfian:
		rank := k.zipf.rank(r.Float64())
		if rank >= k.nKeys {
			rank %= k.nKeys
		}
		return rank
	case KeysSequential:
		blk := k.pos
		k.pos++
		if k.pos >= k.nKeys {
			k.pos = 0
		}
		return blk
	case KeysStrided:
		blk := k.pos
		k.pos += k.stride
		if k.pos >= k.nKeys {
			k.pos -= k.nKeys
		}
		return blk
	default: // KeysUniform
		return r.Int63n(k.nKeys)
	}
}

// gcd is the classic Euclid reduction.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
