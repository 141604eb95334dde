package crypt

// encrypt8 encrypts the eight 16-byte blocks of src under the expanded
// AES-128 key xk into dst with AES-NI (pad_amd64.s).
//
//go:noescape
func encrypt8(xk *[roundKeyBytes]byte, dst, src *[kernelBytes]byte)

// hasAESNI reports CPUID leaf 1's AES bit (ECX bit 25).
func hasAESNI() bool

// useKernel selects the 8-block kernel for PadInto and XorPad. Tests
// flip it to run the per-chunk crypto/aes reference path as well.
var useKernel = hasAESNI()
