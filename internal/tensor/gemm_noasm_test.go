//go:build !amd64 || purego

package tensor

// asmKernels lists the assembly tiles this build has: none.
func asmKernels() []gemmKernel { return nil }
