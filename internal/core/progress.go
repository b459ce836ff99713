package core

import (
	"math"

	"chameleon/internal/obs"
)

// publishProgress derives run.progress / run.eta_seconds gauges from the
// σ-search cursor after every GenObf call, so the expose server's /runs
// and /metrics views can report how far along an in-flight anonymization
// is. It only reads the cursor and the metrics registry — never the RNG
// streams — so it cannot perturb the bit-identical resume guarantee.
//
// Work is measured in GenObf calls. The calls already made are known
// exactly (Result.GenObfCalls, checkpoint-restored on resume); the calls
// remaining are the bisection steps needed to shrink the current bracket
// below SigmaTolerance, plus one pending feasibility probe while the
// exponential phase is still bracketing. The ETA multiplies that remainder
// by the mean GenObf cost observed so far (the core.genobf_seconds
// latency genObf maintains). Both are estimates — the exponential phase
// can widen the bracket again — which is exactly what a progress bar is.
func (st *searchState) publishProgress(cur *searchCursor, res *Result) {
	reg := st.p.Obs.Registry()
	if reg == nil {
		return
	}
	remaining := bisectionSteps(cur.sigmaHi-cur.sigmaLo, st.p.SigmaTolerance)
	if cur.phase == phaseExponential {
		// The bracket is not established yet: at least one more probe at
		// sigmaHi, then the bisection over whatever bracket it confirms.
		remaining++
	}
	done := float64(res.GenObfCalls)
	frac := done / (done + float64(remaining))
	base, span, owned := st.progressWindow()
	// float64() rounds the product: no fused multiply-add on any GOARCH.
	reg.Gauge(obs.ProgressGauge).Set(base + float64(frac*span))

	if owned {
		meanNS := reg.Latency("core.genobf_seconds").Snapshot().Mean()
		reg.Gauge(obs.ETAGauge).Set(meanNS / 1e9 * float64(remaining))
	}
}

// publishDone pins the progress gauges to their terminal values when the
// search completes.
func (st *searchState) publishDone() {
	reg := st.p.Obs.Registry()
	if reg == nil {
		return
	}
	base, span, owned := st.progressWindow()
	reg.Gauge(obs.ProgressGauge).Set(base + span)
	if owned {
		reg.Gauge(obs.ETAGauge).Set(0)
	}
}

// progressWindow resolves the Params progress mapping: a zero-valued pair
// means this search owns the whole bar (and the ETA gauge with it).
func (st *searchState) progressWindow() (base, span float64, owned bool) {
	base, span = st.p.ProgressBase, st.p.ProgressSpan
	if base == 0 && span == 0 {
		return 0, 1, true
	}
	return base, span, false
}

// bisectionSteps returns how many halvings shrink a bracket of the given
// width below tol: ceil(log2(width/tol)), 0 when already within tolerance.
func bisectionSteps(width, tol float64) int {
	if width <= tol || tol <= 0 {
		return 0
	}
	return int(math.Ceil(math.Log2(width / tol)))
}
