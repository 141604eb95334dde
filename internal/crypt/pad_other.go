//go:build !amd64

package crypt

// encrypt8 has no kernel off amd64; useKernel keeps it unreachable.
func encrypt8(xk *[roundKeyBytes]byte, dst, src *[kernelBytes]byte) {
	panic("crypt: no 8-block pad kernel on this architecture")
}

// useKernel is false: PadInto and XorPad run the per-chunk crypto/aes
// loop.
var useKernel = false
