//go:build !amd64 || amd64.v3

package mpdata

// No vector bodies on this build (see fused_amd64.go): every fused kernel
// runs its scalar loop, and the stubs below are never called.
var useVector = false

func donorFluxesAVX2(*[10]*float64, rowGeom)   { panic("mpdata: no vector bodies in this build") }
func extremaAVX2(*[16]*float64, rowGeom)       { panic("mpdata: no vector bodies in this build") }
func pseudoVelAVX2(*[66]*float64, rowGeom)     { panic("mpdata: no vector bodies in this build") }
func limiterFluxesAVX2(*[15]*float64, rowGeom) { panic("mpdata: no vector bodies in this build") }
func limitedFluxesAVX2(*[18]*float64, rowGeom) { panic("mpdata: no vector bodies in this build") }
