package experiments

import (
	"context"
	"fmt"
	"io"

	"perple/internal/axiom"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
	"perple/internal/stats"
)

// FaultRow is one test's result against the buggy (PSO) machine.
type FaultRow struct {
	Name string
	// TSOAllowed / PSOAllowed classify the target under each model.
	TSOAllowed, PSOAllowed bool
	// InjectedBug marks the interesting rows: targets a correct TSO
	// machine can never produce but the PSO machine can — sightings prove
	// the machine violates its claimed model.
	InjectedBug bool
	// PerpLE / PerpLEExh / Timebase / User are target detections on the
	// PSO machine.
	PerpLE, PerpLEExh, Timebase, User int64
}

// FaultInjectionResult is the extension experiment: conformance testing
// against hardware that claims x86-TSO but implements SPARC PSO
// (per-location store buffers reorder stores). This is the paper's
// motivating scenario — "observing an ordering that the system's
// published memory model lists as forbidden indicates an implementation
// bug" — exercised end to end.
type FaultInjectionResult struct {
	N    int
	Rows []FaultRow
	// BugsDetectable is how many suite targets are TSO-forbidden but
	// PSO-allowed (the injected bugs).
	BugsDetectable int
	// BugsDetectedPerpLE / BugsDetectedLitmus7 count how many of those
	// each tool exposed: PerpLE's heuristic or exhaustive counter, or
	// litmus7 in timebase or user mode.
	BugsDetectedPerpLE  int
	BugsDetectedLitmus7 int
	// FalsePositives counts sightings of targets PSO also forbids (must
	// be zero: the buggy machine is weaker, not incoherent).
	FalsePositives int64
}

// FaultInjection runs the whole suite against the PSO machine with
// PerpLE-heuristic and litmus7 (timebase and user modes) and checks which
// tool catches the conformance violations.
func FaultInjection(w io.Writer, opts Options) (*FaultInjectionResult, error) {
	n := opts.n(10000)
	res := &FaultInjectionResult{N: n}
	cfg := opts.cfg()
	cfg.Relaxation = memmodel.PSO

	var ws harness.Workspace
	for _, e := range litmus.Suite() {
		psoAllowed, err := axiom.Allowed(e.Test, e.Test.Target, memmodel.PSO)
		if err != nil {
			return nil, err
		}
		row := FaultRow{
			Name:       e.Test.Name,
			TSOAllowed: e.Allowed,
			PSOAllowed: psoAllowed,
		}
		row.InjectedBug = !row.TSOAllowed && row.PSOAllowed

		pt, err := core.Convert(e.Test)
		if err != nil {
			return nil, err
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			return nil, err
		}
		pr, err := ws.RunPerpLE(context.Background(), pt, counter, n, harness.PerpLEOptions{
			Heuristic: true, Exhaustive: true,
			ExhaustiveCap: opts.exhaustiveCap(pt.TL(), n),
		}, cfg)
		if err != nil {
			return nil, err
		}
		row.PerpLE = pr.Heuristic.Counts[0]
		row.PerpLEExh = pr.Exhaustive.Counts[0]

		tb, err := ws.RunLitmus7(context.Background(), e.Test, n, sim.ModeTimebase, nil, cfg, harness.Litmus7Options{})
		if err != nil {
			return nil, err
		}
		row.Timebase = tb.TargetCount
		us, err := ws.RunLitmus7(context.Background(), e.Test, n, sim.ModeUser, nil, cfg, harness.Litmus7Options{})
		if err != nil {
			return nil, err
		}
		row.User = us.TargetCount

		if row.InjectedBug {
			res.BugsDetectable++
			if row.PerpLE > 0 || row.PerpLEExh > 0 {
				res.BugsDetectedPerpLE++
			}
			if row.Timebase > 0 || row.User > 0 {
				res.BugsDetectedLitmus7++
			}
		}
		if !row.PSOAllowed {
			res.FalsePositives += row.PerpLE + row.PerpLEExh + row.Timebase + row.User
		}
		res.Rows = append(res.Rows, row)
	}

	fmt.Fprintf(w, "Fault injection: testing a machine that claims TSO but implements PSO\n")
	fmt.Fprintf(w, "(%d iterations; targets that are TSO-forbidden but PSO-allowed are injected bugs)\n\n", n)
	table := stats.NewTable("test", "TSO", "PSO", "bug?", "perple-heur", "perple-exh", "litmus7-timebase", "litmus7-user")
	for _, r := range res.Rows {
		bug := ""
		if r.InjectedBug {
			bug = "BUG"
			if r.PerpLE > 0 || r.PerpLEExh > 0 {
				bug = "BUG:caught"
			}
		}
		table.AddRow(r.Name, allowedStr(r.TSOAllowed), allowedStr(r.PSOAllowed), bug,
			r.PerpLE, r.PerpLEExh, r.Timebase, r.User)
	}
	fmt.Fprint(w, table.String())
	fmt.Fprintf(w, "\ninjected conformance bugs (TSO-forbidden, PSO-allowed targets): %d\n", res.BugsDetectable)
	fmt.Fprintf(w, "  detected by PerpLE heur/exh:  %d\n", res.BugsDetectedPerpLE)
	fmt.Fprintf(w, "  detected by litmus7:          %d\n", res.BugsDetectedLitmus7)
	fmt.Fprintf(w, "sightings of PSO-forbidden targets (must be 0): %d\n", res.FalsePositives)
	return res, nil
}
