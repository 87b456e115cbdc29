// Command perple-suite runs a whole corpus of litmus tests — the built-in
// Table II suite or a directory of .litmus files — under one testing
// tool, printing per-group results and campaign totals. It is the
// Section VII-G workflow as a tool: PerpLE for the convertible tests and
// litmus7-user for the rest.
//
// The corpus runs through the campaign engine (internal/campaign):
// sharded jobs with identity-derived seeds, leased to in-process
// executors, with retries and optional checkpoint/resume — the same
// engine behind perple-serve. A failing job does not abort the sweep:
// failures are listed after the results and reflected in the exit
// status.
//
// Usage:
//
//	perple-suite                                   # built-in suite, PerpLE heuristic
//	perple-suite -dir testdata/suite -n 10000
//	perple-suite -tool litmus7-timebase
//	perple-suite -preset pso                       # fault-injection machine
//	perple-suite -mixed                            # §VII-G campaign: PerpLE where
//	                                               # convertible, litmus7-user elsewhere
//	perple-suite -dir testdata/suite -n 50000 -shard-size 10000 \
//	    -checkpoint /tmp/suite.json                # Ctrl-C, rerun, and it resumes
//	perple-suite -spec campaign.json
//
// With -remote the same spec is submitted to a running perple-serve as a
// dispatch-mode campaign: perple-worker fleet members execute the shards
// and this command polls until done, then renders the merged results —
// byte-identical to what the local run would have produced, by the
// dispatch layer's determinism contract.
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
	"sort"
	"syscall"
	"time"

	"perple/internal/campaign"
	"perple/internal/harness"
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
	specPath := flag.String("spec", "", "campaign spec JSON file (overrides the other flags)")
	checkpoint := flag.String("checkpoint", "", "campaign checkpoint file: progress is saved there and a rerun resumes")
	shardSize := flag.Int("shard-size", 0, "campaign iterations per shard (default: one shard per test/tool/preset)")
	workers := flag.Int("workers", 0, "campaign worker goroutines (default: GOMAXPROCS)")
	intraWorkers := flag.Int("intra-workers", 1, "worker goroutines inside each campaign job (result-affecting; recorded in checkpoints)")
	remote := flag.String("remote", "", "perple-serve base URL: submit the campaign as a dispatch job for perple-worker fleet members")
	axiomPolicy := flag.String("axiom", "", "campaign axiom policy: warn (default) flags statically forbidden/unsatisfiable targets, reject drops them from the sweep, off skips the check")
	traceVerify := flag.String("trace-verify", "", "witness-trace verification for litmus7 runs: off (default), all, or a decimal stride k — check every k-th iteration's rf/co witness against x86-TSO")
	flag.Parse()

	spec, err := buildSpec(*specPath, *dir, *tool, *mixed, *n, *seed, *preset, *exhCap,
		*shardSize, *workers, *intraWorkers, *axiomPolicy, *traceVerify)
	if err != nil {
		return err
	}
	if *remote != "" {
		return runRemote(*remote, spec)
	}
	return runLocal(spec, *checkpoint)
}

// traceTotals holds a sweep's witness-trace verification tallies, with
// the rendered reports capped like the harness caps them.
type traceTotals struct {
	verified   int64
	violations int64
	reports    []string
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

// runLocal runs the campaign in-process and renders its results.
func runLocal(spec campaign.Spec, checkpoint string) error {
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
// otherwise from the command-line flags.
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
	// rendering.
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
