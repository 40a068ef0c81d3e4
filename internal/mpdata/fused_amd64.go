//go:build amd64 && !amd64.v3

package mpdata

// The AVX2 bodies of fused_amd64.s. Each takes the stream pointers of a pass
// over a non-empty region — a table of three sections, the row bodies, the
// k = 0 end cells and the k = NK-1 end cells (see vecRegion.at for the bounds
// proof behind every entry) — the body's geometry, whose rows, planes and
// strides the end cells share, and which end sections are present (bit 0,
// bit 1; an absent section is never read). It touches no byte of any stream
// outside the cells the proofs cover. The build tag excludes GOAMD64=v3: there
// the compiler fuses multiply-adds in the scalar kernels, and the two would no
// longer agree.

//go:noescape
func donorFluxesAVX2(p *[30]*float64, g rowGeom, ends int)

//go:noescape
func extremaAVX2(p *[48]*float64, g rowGeom, ends int)

//go:noescape
func pseudoVelAVX2(p *[198]*float64, g rowGeom, ends int)

//go:noescape
func limiterFluxesAVX2(p *[45]*float64, g rowGeom, ends int)

//go:noescape
func limitedFluxesAVX2(p *[54]*float64, g rowGeom, ends int)

//go:noescape
func fluxDivergenceAVX2(p *[27]*float64, g rowGeom, ends int)

// betasAVX2 is pointwise: one section, no end cells.
//
//go:noescape
func betasAVX2(p *[8]*float64, g rowGeom)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useVector makes the fused kernels registered from here on run the AVX2
// bodies: set when the CPU has AVX2 and the operating system saves the YMM
// registers across context switches.
var useVector = hasAVX2()

func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymm     = 0b110   // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if x, _ := xgetbv(); x&ymm != ymm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
