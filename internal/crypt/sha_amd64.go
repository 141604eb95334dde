package crypt

// blockSHANI compresses the whole 64-byte blocks of p into the SHA-256
// state h with the SHA extensions (sha_amd64.s).
//
//go:noescape
func blockSHANI(h *[8]uint32, p []byte)

// hasSHANI reports the SHA, SSSE3 and SSE4.1 extensions blockSHANI
// uses (CPUID leaf 7 EBX bit 29, leaf 1 ECX bits 9 and 19).
func hasSHANI() bool

// useSHAKernel selects the SHA-NI kernel for every keyed hash. Tests
// flip it to run the crypto/sha256 reference path as well.
var useSHAKernel = hasSHANI()
