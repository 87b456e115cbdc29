package experiments

import (
	"fmt"
	"io"

	"perple/internal/axiom"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/stats"
)

// TableIIRow is one suite test's classification.
type TableIIRow struct {
	Name       string
	T, TL      int
	Claimed    bool // Table II's allowed/forbidden grouping
	TSOAllowed bool // re-derived by the axiomatic checker
	SCAllowed  bool
}

// TableIIResult reproduces Table II: the perpetual litmus suite with
// [T, T_L] signatures and the allowed/forbidden split, re-derived with
// the axiomatic checker.
type TableIIResult struct {
	Rows []TableIIRow
	// Mismatches counts rows where the re-derived classification
	// disagrees with the suite's claim (must be zero).
	Mismatches int
}

// TableII regenerates Table II and writes the report to w.
func TableII(w io.Writer, opts Options) (*TableIIResult, error) {
	res := &TableIIResult{}
	for _, e := range litmus.Suite() {
		row := TableIIRow{
			Name:    e.Test.Name,
			T:       e.Test.T(),
			TL:      e.Test.TL(),
			Claimed: e.Allowed,
		}
		var err error
		if row.TSOAllowed, err = axiom.Allowed(e.Test, e.Test.Target, memmodel.TSO); err != nil {
			return nil, err
		}
		if row.SCAllowed, err = axiom.Allowed(e.Test, e.Test.Target, memmodel.SC); err != nil {
			return nil, err
		}
		if row.TSOAllowed != row.Claimed {
			res.Mismatches++
		}
		res.Rows = append(res.Rows, row)
	}

	fmt.Fprintf(w, "Table II: perpetual litmus suite for x86-TSO (%d tests)\n\n", len(res.Rows))
	for _, allowed := range []bool{true, false} {
		if allowed {
			fmt.Fprintln(w, "Target outcome allowed by x86-TSO:")
		} else {
			fmt.Fprintln(w, "\nTarget outcome forbidden by x86-TSO:")
		}
		tb := stats.NewTable("test", "[T,TL]", "TSO", "SC", "check")
		for _, r := range res.Rows {
			if r.Claimed != allowed {
				continue
			}
			check := "ok"
			if r.TSOAllowed != r.Claimed {
				check = "MISMATCH"
			}
			tb.AddRow(r.Name, fmt.Sprintf("[%d,%d]", r.T, r.TL),
				allowedStr(r.TSOAllowed), allowedStr(r.SCAllowed), check)
		}
		fmt.Fprint(w, tb.String())
	}
	fmt.Fprintf(w, "\nclassification mismatches vs Table II: %d\n", res.Mismatches)
	return res, nil
}

func allowedStr(b bool) string {
	if b {
		return "allowed"
	}
	return "forbidden"
}
