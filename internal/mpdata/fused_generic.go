//go:build !amd64 || amd64.v3

package mpdata

// No vector bodies on this build (see fused_amd64.go): every fused kernel
// runs its scalar loop, and the stubs below are never called.
var useVector = false

func donorFluxesAVX2(*[30]*float64, rowGeom, int)    { panic("mpdata: no vector bodies in this build") }
func extremaAVX2(*[48]*float64, rowGeom, int)        { panic("mpdata: no vector bodies in this build") }
func pseudoVelAVX2(*[198]*float64, rowGeom, int)     { panic("mpdata: no vector bodies in this build") }
func limiterFluxesAVX2(*[45]*float64, rowGeom, int)  { panic("mpdata: no vector bodies in this build") }
func limitedFluxesAVX2(*[54]*float64, rowGeom, int)  { panic("mpdata: no vector bodies in this build") }
func fluxDivergenceAVX2(*[27]*float64, rowGeom, int) { panic("mpdata: no vector bodies in this build") }
func betasAVX2(*[8]*float64, rowGeom)                { panic("mpdata: no vector bodies in this build") }
