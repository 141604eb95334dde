//go:build !amd64

package crypt

// blockSHANI has no kernel off amd64; useSHAKernel keeps it unreachable.
func blockSHANI(h *[8]uint32, p []byte) {
	panic("crypt: no SHA-NI kernel on this architecture")
}

// useSHAKernel is false: every keyed hash runs crypto/sha256.Sum256.
var useSHAKernel = false
