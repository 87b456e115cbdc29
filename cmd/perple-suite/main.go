// Command perple-suite runs a whole corpus of litmus tests — the built-in
// Table II suite or a directory of .litmus files — under one testing
// tool, printing a per-test summary and campaign totals. It is the
// Section VII-G workflow as a tool: PerpLE for the convertible tests and
// litmus7 for the rest.
//
// A failing test no longer aborts the sweep: failures are collected,
// summarized after the table, and reflected in the exit status.
//
// Usage:
//
//	perple-suite                                   # built-in suite, PerpLE heuristic
//	perple-suite -dir testdata/suite -n 10000
//	perple-suite -tool litmus7-timebase
//	perple-suite -preset pso                       # fault-injection machine
//	perple-suite -mixed                            # §VII-G campaign: PerpLE where
//	                                               # convertible, litmus7-user elsewhere
//
// With -campaign the corpus is handed to the campaign engine
// (internal/campaign): sharded jobs leased to in-process executors,
// retries, and optional checkpoint/resume — the same engine behind
// perple-serve.
//
//	perple-suite -campaign -dir testdata/suite -n 50000 -shard-size 10000 \
//	    -checkpoint /tmp/suite.json      # Ctrl-C, rerun, and it resumes
//	perple-suite -campaign -spec campaign.json
//
// With -remote the same spec is submitted to a running perple-serve as a
// dispatch-mode campaign: perple-worker fleet members execute the shards
// and this command polls until done, then renders the merged results —
// byte-identical to what the local -campaign path would have produced,
// by the dispatch layer's determinism contract.
//
//	perple-suite -remote http://localhost:8077 -n 50000 -shard-size 10000
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"perple/internal/campaign"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
	"perple/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perple-suite: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("dir", "", "directory of .litmus files (default: the built-in Table II suite)")
	tool := flag.String("tool", "perple-heur", "perple-heur, perple-exh, or litmus7-{user,userfence,pthread,timebase,none}")
	mixed := flag.Bool("mixed", false, "run the Section VII-G campaign: PerpLE-heuristic for convertible tests, litmus7-user for the rest")
	n := flag.Int("n", 10000, "iterations per test")
	seed := flag.Int64("seed", 1, "simulator seed")
	preset := flag.String("preset", "default", "machine preset (default, pso, slow-drain, fast-drain, no-preempt, heavy-preempt)")
	exhCap := flag.Int("exhcap", 2000, "iteration cap for the exhaustive counter (-1 = uncapped)")
	useCampaign := flag.Bool("campaign", false, "delegate the sweep to the campaign scheduler (sharded, parallel, resumable)")
	specPath := flag.String("spec", "", "campaign spec JSON file (implies -campaign; overrides the other flags)")
	checkpoint := flag.String("checkpoint", "", "campaign checkpoint file: progress is saved there and a rerun resumes")
	shardSize := flag.Int("shard-size", 0, "campaign iterations per shard (default: one shard per test/tool/preset)")
	workers := flag.Int("workers", 0, "campaign worker goroutines (default: GOMAXPROCS)")
	intraWorkers := flag.Int("intra-workers", 1, "worker goroutines inside each campaign job (result-affecting; recorded in checkpoints)")
	remote := flag.String("remote", "", "perple-serve base URL: submit the campaign as a dispatch job for perple-worker fleet members")
	axiomPolicy := flag.String("axiom", "", "campaign axiom policy: warn (default) flags statically forbidden/unsatisfiable targets, reject drops them from the sweep, off skips the check")
	traceVerify := flag.String("trace-verify", "", "witness-trace verification for litmus7 runs: off (default), all, or a decimal stride k — check every k-th iteration's rf/co witness against x86-TSO")
	flag.Parse()

	if *remote != "" {
		spec, err := buildSpec(*specPath, *dir, *tool, *mixed, *n, *seed, *preset, *exhCap,
			*shardSize, *workers, *intraWorkers, *axiomPolicy, *traceVerify)
		if err != nil {
			return err
		}
		return runRemote(*remote, spec)
	}
	if *useCampaign || *specPath != "" {
		return runCampaign(*specPath, *dir, *tool, *mixed, *n, *seed, *preset, *exhCap,
			*checkpoint, *shardSize, *workers, *intraWorkers, *axiomPolicy, *traceVerify)
	}
	tvEvery, err := campaign.ParseTraceVerify(*traceVerify)
	if err != nil {
		return err
	}

	cfg, err := sim.Preset(*preset)
	if err != nil {
		return err
	}
	cfg = cfg.WithSeed(*seed)

	tests, err := loadCorpus(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d tests, tool: %s, machine: %s, %d iterations each\n\n",
		len(tests), toolName(*tool, *mixed), *preset, *n)

	tb := stats.NewTable("test", "tool", "target", "ticks", "rate/Mtick", "note")
	var totalTicks, totalTargets int64
	var tvTotals traceTotals
	var failures []string
	for _, test := range tests {
		row, err := runOne(test, *tool, *mixed, *n, *exhCap, cfg, tvEvery, &tvTotals)
		if err != nil {
			// Collect and keep sweeping: one broken test must not hide
			// the results of the other 39.
			failures = append(failures, fmt.Sprintf("%s: %v", test.Name, err))
			tb.AddRow(test.Name, "-", "-", "-", "-", "FAILED")
			continue
		}
		totalTicks += row.ticks
		totalTargets += row.target
		tb.AddRow(test.Name, row.tool, row.target, row.ticks,
			stats.Rate(row.target, row.ticks)*1e6, row.note)
	}
	fmt.Print(tb.String())
	fmt.Printf("\ncampaign totals: %d target occurrences, %d simulated ticks\n", totalTargets, totalTicks)
	if err := tvTotals.report(tvEvery); err != nil && len(failures) == 0 {
		return err
	}
	if len(failures) > 0 {
		fmt.Printf("\n%d test(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Printf("  %s\n", f)
		}
		return fmt.Errorf("%d of %d tests failed", len(failures), len(tests))
	}
	return nil
}

// traceTotals accumulates witness-trace verification tallies across a
// sweep, with the rendered reports capped like the harness caps them.
type traceTotals struct {
	verified   int64
	violations int64
	reports    []string
}

func (tt *traceTotals) add(res *harness.Litmus7Result) {
	tt.verified += res.TracesVerified
	tt.violations += res.TraceViolations
	for _, rep := range res.TraceReports {
		if len(tt.reports) < harness.DefaultTraceReports {
			tt.reports = append(tt.reports, rep)
		}
	}
}

// report prints the verification summary and returns an error when the
// machine violated its model — a trace violation is a conformance bug,
// not a statistic, so it must fail the sweep's exit status.
func (tt *traceTotals) report(every int) error {
	if every == 0 {
		return nil
	}
	fmt.Printf("trace-verify: %d witnesses checked (stride %d), %d violation(s)\n",
		tt.verified, every, tt.violations)
	for _, rep := range tt.reports {
		fmt.Printf("\n%s\n", rep)
	}
	if tt.violations > 0 {
		return fmt.Errorf("trace verification found %d violation(s)", tt.violations)
	}
	return nil
}

// runCampaign hands the sweep to the campaign scheduler. The spec comes
// from -spec JSON when given, otherwise it is assembled from the same
// flags the sequential path uses.
func runCampaign(specPath, dir, tool string, mixed bool, n int, seed int64, preset string,
	exhCap int, checkpoint string, shardSize, workers, intraWorkers int, axiomPolicy, traceVerify string) error {
	spec, err := buildSpec(specPath, dir, tool, mixed, n, seed, preset, exhCap,
		shardSize, workers, intraWorkers, axiomPolicy, traceVerify)
	if err != nil {
		return err
	}

	camp, err := campaign.New(spec)
	if err != nil {
		return err
	}
	printAxiomFlags(camp.AxiomInfo())
	testNames := map[string]bool{}
	for _, job := range camp.Jobs() {
		testNames[job.Test] = true
	}
	fmt.Printf("campaign: %d jobs (%d tests), %d workers",
		len(camp.Jobs()), len(testNames), spec.Workers)
	if checkpoint != "" {
		fmt.Printf(", checkpoint %s", checkpoint)
	}
	fmt.Println()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	metrics := &campaign.Metrics{}
	done := 0
	var tvTotals traceTotals
	res, err := camp.Run(ctx, campaign.Options{
		CheckpointPath: checkpoint,
		Metrics:        metrics,
		OnJobDone: func(jr *campaign.JobResult) {
			done++
			for _, rep := range jr.TraceReports {
				if len(tvTotals.reports) < harness.DefaultTraceReports {
					tvTotals.reports = append(tvTotals.reports, rep)
				}
			}
			fmt.Fprintf(os.Stderr, "\r%d/%d jobs", done+int(metrics.JobsRestored.Load()), len(camp.Jobs()))
		},
	})
	fmt.Fprintln(os.Stderr)
	if res != nil {
		fmt.Print(res.Render())
	}
	if err != nil {
		if checkpoint != "" {
			return fmt.Errorf("%w (progress saved to %s; rerun to resume)", err, checkpoint)
		}
		return err
	}
	tvTotals.verified = metrics.TracesVerified.Load()
	tvTotals.violations = metrics.TraceViolations.Load()
	if err := tvTotals.report(spec.TraceVerifyEvery()); err != nil {
		return err
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("%d job(s) failed", len(res.Failures))
	}
	return nil
}

// buildSpec assembles a campaign spec from -spec JSON when given,
// otherwise from the same flags the sequential path uses.
func buildSpec(specPath, dir, tool string, mixed bool, n int, seed int64, preset string,
	exhCap, shardSize, workers, intraWorkers int, axiomPolicy, traceVerify string) (campaign.Spec, error) {
	if specPath != "" {
		spec, err := campaign.LoadSpec(specPath)
		if err == nil && axiomPolicy != "" {
			spec.Axiom = axiomPolicy
			err = spec.Validate()
		}
		if err == nil && traceVerify != "" {
			spec.TraceVerify = traceVerify
			err = spec.Validate()
		}
		return spec, err
	}
	campaignTool := tool
	if mixed {
		campaignTool = "mixed"
	}
	spec := campaign.Spec{
		Dir:          dir,
		Tools:        []string{campaignTool},
		Presets:      []string{preset},
		Seed:         seed,
		Iterations:   n,
		ShardSize:    shardSize,
		ExhCap:       exhCap,
		Workers:      workers,
		IntraWorkers: intraWorkers,
		Axiom:        axiomPolicy,
		TraceVerify:  traceVerify,
	}
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, err
	}
	return spec, nil
}

// printAxiomFlags surfaces noteworthy static classifications before the
// sweep starts: rejected tests, unsatisfiable or forbidden targets (a
// forbidden target means the budget can only ever detect simulator
// conformance bugs), and tests beyond the exact-enumeration cutoff.
func printAxiomFlags(info map[string]campaign.TestAxiom) {
	names := make([]string, 0, len(info))
	for name := range info {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ta := info[name]
		switch {
		case ta.Excluded:
			fmt.Printf("axiom: %s: target statically rejected (%s); excluded from the sweep\n",
				name, axiomReason(ta))
		case ta.Unsatisfiable:
			fmt.Printf("axiom: warn: %s: target is unsatisfiable — no execution can produce it\n", name)
		case ta.Class == "forbidden":
			fmt.Printf("axiom: warn: %s: target is forbidden under SC and TSO; iterations can only detect conformance bugs\n", name)
		case ta.Note != "":
			fmt.Printf("axiom: note: %s: %s\n", name, ta.Note)
		}
	}
}

func axiomReason(ta campaign.TestAxiom) string {
	if ta.Unsatisfiable {
		return "unsatisfiable"
	}
	return ta.Class
}

// runRemote submits the spec to a perple-serve instance as a dispatch
// campaign, polls until fleet workers finish it, and renders the merged
// results. The test corpus must be resolvable on the server (built-in
// suite, or a -dir path valid there).
func runRemote(baseURL string, spec campaign.Spec) error {
	client := &http.Client{Timeout: 30 * time.Second}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := client.Post(baseURL+"/campaigns?mode=dispatch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var submitted struct {
		ID    string `json:"id"`
		Jobs  int    `json:"jobs"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding submit response: %w", err)
	}
	if submitted.Error != "" {
		return fmt.Errorf("server rejected campaign: %s", submitted.Error)
	}
	fmt.Printf("campaign %s: %d jobs queued for dispatch at %s — point perple-worker at it\n",
		submitted.ID, submitted.Jobs, baseURL)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var tvTotals traceTotals
	for {
		var status struct {
			State    string `json:"state"`
			Error    string `json:"error"`
			Dispatch *struct {
				Pending int `json:"pending"`
				Leased  int `json:"leased"`
				Done    int `json:"done"`
				Failed  int `json:"failed"`
			} `json:"dispatch"`
			Metrics struct {
				TracesVerified  int64 `json:"traces_verified"`
				TraceViolations int64 `json:"trace_violations"`
			} `json:"metrics"`
			TraceReports []string `json:"trace_reports"`
		}
		if err := getJSON(ctx, client, fmt.Sprintf("%s/campaigns/%s", baseURL, submitted.ID), &status); err != nil {
			return err
		}
		tvTotals.verified = status.Metrics.TracesVerified
		tvTotals.violations = status.Metrics.TraceViolations
		tvTotals.reports = status.TraceReports
		if d := status.Dispatch; d != nil {
			fmt.Fprintf(os.Stderr, "\r%d done, %d leased, %d pending", d.Done, d.Leased, d.Pending)
		}
		if status.State != "running" {
			fmt.Fprintln(os.Stderr)
			if status.Error != "" {
				return fmt.Errorf("campaign %s %s: %s", submitted.ID, status.State, status.Error)
			}
			break
		}
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr)
			return ctx.Err()
		case <-time.After(time.Second):
		}
	}

	// The canonical document is the dispatch layer's determinism surface;
	// decode it back into an accumulator so the report matches the local
	// -campaign rendering.
	var doc struct {
		Groups   []*campaign.GroupResult `json:"groups"`
		Failures []campaign.JobFailure   `json:"failures"`
	}
	if err := getJSON(ctx, client, fmt.Sprintf("%s/campaigns/%s/results?format=canonical", baseURL, submitted.ID), &doc); err != nil {
		return err
	}
	res := campaign.NewResults()
	for _, g := range doc.Groups {
		res.Groups[campaign.GroupKey(g.Test, g.Tool, g.Preset)] = g
	}
	res.Failures = doc.Failures
	fmt.Print(res.Render())
	if err := tvTotals.report(spec.TraceVerifyEvery()); err != nil {
		return err
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("%d job(s) failed", len(res.Failures))
	}
	return nil
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type rowResult struct {
	tool   string
	target int64
	ticks  int64
	note   string
}

func runOne(test *litmus.Test, tool string, mixed bool, n, exhCap int, cfg sim.Config,
	tvEvery int, tvTotals *traceTotals) (rowResult, error) {
	convertible := !test.Target.HasMemConds()
	useTool := tool
	if mixed {
		if convertible {
			useTool = "perple-heur"
		} else {
			useTool = "litmus7-user"
		}
	}

	if strings.HasPrefix(useTool, "litmus7-") {
		mode, err := sim.ParseMode(strings.TrimPrefix(useTool, "litmus7-"))
		if err != nil {
			return rowResult{}, err
		}
		res, err := harness.RunLitmus7BatchVerify(test, n, mode, nil, cfg, 1,
			harness.TraceVerify{Every: tvEvery})
		if err != nil {
			return rowResult{}, err
		}
		row := rowResult{tool: useTool, target: res.TargetCount, ticks: res.Ticks}
		if tvEvery > 0 {
			tvTotals.add(res)
			if res.TraceViolations > 0 {
				row.note = fmt.Sprintf("%d trace violation(s)", res.TraceViolations)
			}
		}
		return row, nil
	}

	if !convertible {
		// PerpLE cannot run final-state targets: fall back, with a note,
		// exactly as the paper prescribes (Section VII-G).
		res, err := harness.RunLitmus7(test, n, sim.ModeUser, nil, cfg)
		if err != nil {
			return rowResult{}, err
		}
		return rowResult{tool: "litmus7-user", target: res.TargetCount, ticks: res.Ticks,
			note: "not convertible"}, nil
	}

	pt, err := core.Convert(test)
	if err != nil {
		return rowResult{}, err
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		return rowResult{}, err
	}
	opts := harness.PerpLEOptions{}
	switch useTool {
	case "perple-heur":
		opts.Heuristic = true
	case "perple-exh":
		opts.Exhaustive = true
		if exhCap > 0 {
			opts.ExhaustiveCap = exhCap
		}
	default:
		return rowResult{}, fmt.Errorf("unknown tool %q", useTool)
	}
	res, err := harness.RunPerpLE(pt, counter, n, opts, cfg)
	if err != nil {
		return rowResult{}, err
	}
	if useTool == "perple-exh" {
		note := ""
		if res.ExhaustiveN < n {
			note = fmt.Sprintf("exh capped at %d", res.ExhaustiveN)
		}
		return rowResult{tool: useTool, target: res.Exhaustive.Counts[0],
			ticks: res.TotalTicksExhaustive(), note: note}, nil
	}
	return rowResult{tool: useTool, target: res.Heuristic.Counts[0],
		ticks: res.TotalTicksHeuristic()}, nil
}

func toolName(tool string, mixed bool) string {
	if mixed {
		return "mixed (PerpLE-heur + litmus7-user)"
	}
	return tool
}

// loadCorpus reads every .litmus file of a directory, or returns the
// built-in suite plus the non-convertible examples when dir is empty.
func loadCorpus(dir string) ([]*litmus.Test, error) {
	if dir == "" {
		var tests []*litmus.Test
		for _, e := range litmus.Suite() {
			tests = append(tests, e.Test)
		}
		tests = append(tests, litmus.NonConvertible()...)
		return tests, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".litmus") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .litmus files in %s", dir)
	}
	var tests []*litmus.Test
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		test, err := litmus.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tests = append(tests, test)
	}
	return tests, nil
}
