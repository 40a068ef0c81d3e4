package exec

// Params bundles the machine-model constants so sensitivity studies can
// perturb them; the package-level constants in params.go remain the
// documented calibration and feed DefaultParams.
type Params struct {
	CacheKernelFlopsPerCore float64
	DSMCoherenceFactor      float64
	SpillFactor             float64
	MemSerialFraction       float64
	L3BWBytes               float64
	RemoteStreamLines       float64
	C2CLines                float64
	C2CHopFactor            float64
	C2CBaseLatency          float64
	BarrierBase             float64
	BarrierPerLevel         float64
	BarrierPerNode          float64
	BarrierHopFactor        float64
}

// DefaultParams returns the calibrated model constants (see params.go and
// docs/MODEL.md for the derivations).
func DefaultParams() Params {
	return Params{
		CacheKernelFlopsPerCore: CacheKernelFlopsPerCore,
		DSMCoherenceFactor:      DSMCoherenceFactor,
		SpillFactor:             SpillFactor,
		MemSerialFraction:       MemSerialFraction,
		L3BWBytes:               L3BWBytes,
		RemoteStreamLines:       RemoteStreamLines,
		C2CLines:                C2CLines,
		C2CHopFactor:            C2CHopFactor,
		C2CBaseLatency:          C2CBaseLatency,
		BarrierBase:             BarrierBase,
		BarrierPerLevel:         BarrierPerLevel,
		BarrierPerNode:          BarrierPerNode,
		BarrierHopFactor:        BarrierHopFactor,
	}
}

// Scaled returns a copy with the named field multiplied by factor. Unknown
// names panic (a programming error in a study definition).
func (p Params) Scaled(field string, factor float64) Params {
	switch field {
	case "CacheKernelFlopsPerCore":
		p.CacheKernelFlopsPerCore *= factor
	case "DSMCoherenceFactor":
		p.DSMCoherenceFactor *= factor
	case "SpillFactor":
		p.SpillFactor *= factor
	case "MemSerialFraction":
		p.MemSerialFraction *= factor
	case "L3BWBytes":
		p.L3BWBytes *= factor
	case "RemoteStreamLines":
		p.RemoteStreamLines *= factor
	case "C2CLines":
		p.C2CLines *= factor
	case "C2CHopFactor":
		p.C2CHopFactor *= factor
	case "C2CBaseLatency":
		p.C2CBaseLatency *= factor
	case "BarrierBase":
		p.BarrierBase *= factor
	case "BarrierPerLevel":
		p.BarrierPerLevel *= factor
	case "BarrierPerNode":
		p.BarrierPerNode *= factor
	case "BarrierHopFactor":
		p.BarrierHopFactor *= factor
	default:
		panic("exec: unknown model parameter " + field)
	}
	return p
}

// ParamNames lists the perturbable model parameters.
func ParamNames() []string {
	return []string{
		"CacheKernelFlopsPerCore", "DSMCoherenceFactor", "SpillFactor",
		"MemSerialFraction", "L3BWBytes", "RemoteStreamLines", "C2CLines",
		"C2CHopFactor", "C2CBaseLatency", "BarrierBase", "BarrierPerLevel",
		"BarrierPerNode", "BarrierHopFactor",
	}
}
