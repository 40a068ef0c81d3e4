package mpdata

import (
	"fmt"

	"islands/internal/stencil"
)

// Options selects the MPDATA variant to build. The paper's configuration is
// the default: two passes (one corrective iteration) with the
// non-oscillatory limiter — the 17-stage program of DESIGN.md §5.
type Options struct {
	// IORD is the order parameter of MPDATA: the total number of passes
	// (1 = donor-cell only, 2 = one antidiffusive correction, ...).
	// Each extra pass appends another corrective stage group.
	IORD int
	// NonOscillatory enables the flux limiter (Smolarkiewicz &
	// Grabowski); disabling it removes the six limiter stages per
	// corrective pass and the monotonicity guarantee.
	NonOscillatory bool
}

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options {
	return Options{IORD: 2, NonOscillatory: true}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.IORD < 1 {
		return fmt.Errorf("mpdata: IORD must be at least 1, got %d", o.IORD)
	}
	if o.IORD > 4 {
		return fmt.Errorf("mpdata: IORD > 4 gives negligible accuracy gains; got %d", o.IORD)
	}
	return nil
}

// NewProgramWithOptions builds an MPDATA kernel program for the given
// variant. Stage names of corrective pass k >= 2 carry a ".k" suffix except
// for the paper's default configuration, which keeps the unsuffixed 17-stage
// names used throughout the tests and documentation.
func NewProgramWithOptions(o Options) (*stencil.KernelProgram, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	suffix := func(pass int, name string) string {
		if o == DefaultOptions() || pass == 1 {
			return name
		}
		return fmt.Sprintf("%s.%d", name, pass)
	}

	stages := []stencil.KernelStage{
		fluxStage("f1", InU1, 1, 0, 0),
		fluxStage("f2", InU2, 0, 1, 0),
		fluxStage("f3", InU3, 0, 0, 1),
		psiStarStage(),
	}
	// Hand-written group kernels for the stage-fusion compiler: collected
	// alongside the stages, registered after the program validates.
	fused := []stencil.FusedKernel{
		fusedDonorFluxes("f1", "f2", "f3", InU1, InU2, InU3, InPsi),
		fluxDivergence("psiStar", InPsi, "f1", "f2", "f3"),
	}
	register := func(kp *stencil.KernelProgram, err error) (*stencil.KernelProgram, error) {
		if err != nil {
			return nil, err
		}
		// psi is the step's feedback input: the output becomes the next
		// step's psi, which lets the executor compile temporal blocks
		// (exec.Config.KSteps) with halos widened by the k-fold composition
		// of psi's per-face extent.
		kp.Program.Feedback = InPsi
		for _, fk := range fused {
			if err := kp.RegisterFused(fk); err != nil {
				return nil, err
			}
		}
		return kp, nil
	}
	if o.IORD == 1 {
		// Donor-cell only: the upwind update writes the output directly.
		stages[3] = psiNewStageNamed(OutPsi, InPsi, "f1", "f2", "f3")
		fused[1] = fluxDivergence(OutPsi, InPsi, "f1", "f2", "f3")
		return register(stencil.BuildProgram("mpdata-iord1", StepInputs(), OutPsi, stages))
	}
	// cur names the field holding the current best solution; v1..v3 the
	// velocity fields advecting it. Each corrective pass consumes them and
	// produces the next generation.
	cur := "psiStar"
	v1, v2, v3 := InU1, InU2, InU3
	for pass := 1; pass < o.IORD; pass++ {
		s := func(name string) string { return suffix(pass, name) }
		nv1, nv2, nv3 := s("v1"), s("v2"), s("v3")
		var g1, g2, g3 string
		if o.NonOscillatory {
			mx, mn := s("psiMax"), s("psiMin")
			fin, fout := s("fluxIn"), s("fluxOut")
			bu, bd := s("betaUp"), s("betaDn")
			g1, g2, g3 = s("g1"), s("g2"), s("g3")
			stages = append(stages,
				extremaStageNamed(mx, true, cur),
				extremaStageNamed(mn, false, cur),
				pseudoVelStageNamed(nv1, 0, cur, v1, v2, v3),
				pseudoVelStageNamed(nv2, 1, cur, v1, v2, v3),
				pseudoVelStageNamed(nv3, 2, cur, v1, v2, v3),
				limiterFluxStageNamed(fin, true, cur, nv1, nv2, nv3),
				limiterFluxStageNamed(fout, false, cur, nv1, nv2, nv3),
				betaStageNamed(bu, true, cur, mx, fin),
				betaStageNamed(bd, false, cur, mn, fout),
				limitedFluxStageNamed(g1, nv1, 1, 0, 0, cur, bu, bd),
				limitedFluxStageNamed(g2, nv2, 0, 1, 0, cur, bu, bd),
				limitedFluxStageNamed(g3, nv3, 0, 0, 1, cur, bu, bd),
			)
			fused = append(fused,
				fusedExtrema(mx, mn, cur),
				fusedPseudoVel(nv1, nv2, nv3, cur, v1, v2, v3),
				fusedLimiterFluxes(fin, fout, cur, nv1, nv2, nv3),
				fusedBetas(bu, bd, cur, mx, mn, fin, fout),
				fusedLimitedFluxes(g1, g2, g3, nv1, nv2, nv3, cur, bu, bd),
			)
		} else {
			g1, g2, g3 = s("g1"), s("g2"), s("g3")
			stages = append(stages,
				pseudoVelStageNamed(nv1, 0, cur, v1, v2, v3),
				pseudoVelStageNamed(nv2, 1, cur, v1, v2, v3),
				pseudoVelStageNamed(nv3, 2, cur, v1, v2, v3),
				fluxStageNamed(g1, nv1, 1, 0, 0, cur),
				fluxStageNamed(g2, nv2, 0, 1, 0, cur),
				fluxStageNamed(g3, nv3, 0, 0, 1, cur),
			)
			fused = append(fused,
				fusedPseudoVel(nv1, nv2, nv3, cur, v1, v2, v3),
				fusedDonorFluxes(g1, g2, g3, nv1, nv2, nv3, cur))
		}
		out := OutPsi
		if pass < o.IORD-1 {
			out = s("psiOut")
		}
		stages = append(stages, psiNewStageNamed(out, cur, g1, g2, g3))
		fused = append(fused, fluxDivergence(out, cur, g1, g2, g3))
		cur = out
		v1, v2, v3 = nv1, nv2, nv3
	}
	return register(stencil.BuildProgram(fmt.Sprintf("mpdata-iord%d", o.IORD), StepInputs(), OutPsi, stages))
}
