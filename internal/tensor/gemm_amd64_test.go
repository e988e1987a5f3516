//go:build amd64 && !purego

package tensor

// asmKernels lists the assembly tiles this host can run.
func asmKernels() []gemmKernel {
	ks := []gemmKernel{kernSSE2}
	if osHasAVX() {
		ks = append(ks, kernAVX)
	}
	return ks
}
