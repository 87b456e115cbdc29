package harness

import (
	"context"
	"fmt"
	"time"

	"perple/internal/memmodel"
	"perple/internal/trace"
)

// TraceVerify configures streaming witness-trace verification of
// litmus7-style runs: the simulator records an rf/co witness for every
// Every-th iteration and the near-linear trace checker validates each
// against the model as results are tallied.
type TraceVerify struct {
	// Every is the sampling stride: 0 disables verification, 1 verifies
	// every iteration, k > 1 verifies every k-th.
	Every int

	// SC, when set, verifies against sequential consistency instead of
	// x86-TSO. The default (TSO) is the machine's contract; SC exists
	// for experiments and will flag ordinary store buffering. (A bool
	// rather than a memmodel.Model because that type's zero value is
	// SC, which would make the dangerous model the silent default.)
	SC bool

	// MaxReports caps the rendered violation reports kept per run; 0
	// selects DefaultTraceReports. Counts are always exact.
	MaxReports int
}

// DefaultTraceReports is the per-run violation report cap when
// TraceVerify.MaxReports is zero.
const DefaultTraceReports = 4

// model resolves the verification model.
func (tv TraceVerify) model() memmodel.Model {
	if tv.SC {
		return memmodel.SC
	}
	return memmodel.TSO
}

// reports resolves the report cap.
func (tv TraceVerify) reports() int {
	if tv.MaxReports <= 0 {
		return DefaultTraceReports
	}
	return tv.MaxReports
}

// SetTraceVerify configures witness verification for subsequent runs of
// this runner (pass a zero TraceVerify to disable). The checker is
// compiled once and reused across runs.
func (lr *Litmus7Runner) SetTraceVerify(tv TraceVerify) error {
	if tv.Every < 0 {
		return fmt.Errorf("harness: negative trace-verify stride %d", tv.Every)
	}
	if tv.Every == 0 {
		lr.tv, lr.checker = TraceVerify{}, nil
		return nil
	}
	c, err := trace.NewCheckerLayout(lr.ct.WitnessLayout(), tv.model())
	if err != nil {
		return err
	}
	lr.tv, lr.checker = tv, c
	return nil
}

// verifyWitnesses checks every recorded witness of a run, filling the
// result's trace-verification tallies.
func (lr *Litmus7Runner) verifyWitnesses(ctx context.Context, w *trace.WitnessSet, res *Litmus7Result) error {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	done := ctx.Done()
	cap := lr.tv.reports()
	for s := 0; s < w.Slots; s++ {
		if done != nil && s&1023 == 0 {
			select {
			case <-done:
				return fmt.Errorf("harness: trace verification aborted: %w", ctx.Err())
			default:
			}
		}
		v, err := lr.checker.Check(w, s)
		if err != nil {
			return fmt.Errorf("harness: %w", err)
		}
		res.TracesVerified++
		if v != nil {
			res.TraceViolations++
			if len(res.TraceReports) < cap {
				res.TraceReports = append(res.TraceReports, v.Format())
			}
		}
	}
	res.TraceVerifyNs += time.Since(start).Nanoseconds() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	return nil
}
