package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"perple/internal/campaign"
	"perple/internal/experiments"
)

// Workload names, as listed in BENCHMARK.json.
const (
	wPaper   = "paper-eval"
	wLitmus7 = "litmus7-campaign"
	wPerple  = "perple-campaign"
	wFleet   = "fleet-durable"
)

// Kinds of workload: what one op drives through the repo's stable entry
// points.
const (
	kindPaper = iota // the eight Section VII drivers
	kindLocal        // campaign.New(...).Run
	kindFleet        // campaign.NewServer + campaign.NewWorker over loopback HTTP
)

// workload is one benchmark input set. Every workload is a closed loop
// with one executing job stream: campaigns run one scheduler worker, the
// fleet one worker with Parallel 1, the paper drivers Workers 1.
type workload struct {
	name string
	kind int
	// spec is the campaign an op runs. For paper-eval it is the suite the
	// drivers evaluate, at the drivers' iteration count over the three
	// tool families; set-up and the traced replay use it.
	spec campaign.Spec
	// checkpointEvery is a local campaign's snapshot cadence in jobs; 0
	// runs without a checkpoint.
	checkpointEvery int
	// paper holds the driver options of paper-eval (Seed and Workers are
	// filled per run).
	paper experiments.Options
}

// workloads returns the benchmark's workloads at their measured sizes.
// root is the repository checkout the corpus paths resolve against.
func workloads(root string) []*workload {
	return []*workload{
		{
			// Paper defaults (N=10k for Figures 9/10, full Figure 11
			// sweeps) take ~10 s an op on a 2-CPU host, too few ops per run
			// for a steady median; N=2000 with quick sweeps keeps every
			// driver and code path at ~2.2 s.
			name: wPaper, kind: kindPaper,
			paper: experiments.Options{N: 2000, Quick: true},
			spec:  campaign.Spec{Tools: []string{"litmus7-user", "perple-heur", "perple-exh"}, Iterations: 2000},
		},
		{
			name: wLitmus7, kind: kindLocal, checkpointEvery: 64,
			spec: campaign.Spec{
				Dir: filepath.Join(root, "testdata", "suite"), Tools: []string{"litmus7-user"},
				Iterations: 100000, ShardSize: 10000, TraceVerify: "16",
			},
		},
		{
			name: wPerple, kind: kindLocal,
			spec: campaign.Spec{Tools: []string{"perple-heur", "perple-exh"}, Iterations: 20000, ShardSize: 10000},
		},
		{
			name: wFleet, kind: kindFleet,
			spec: campaign.Spec{Tools: []string{"litmus7-user"}, Iterations: 50000, ShardSize: 1000},
		},
	}
}

// findWorkload looks a workload up by name.
func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paperDrivers are the Section VII drivers in report order.
var paperDrivers = []struct {
	name string
	run  func(io.Writer, experiments.Options) error
}{
	{"table2", drive(experiments.TableII)},
	{"fig9", drive(experiments.Fig9)},
	{"fig10", drive(experiments.Fig10)},
	{"fig11", drive(experiments.Fig11)},
	{"fig12", drive(experiments.Fig12)},
	{"fig13", drive(experiments.Fig13)},
	{"accuracy", drive(experiments.HeuristicAccuracy)},
	{"overall", drive(experiments.Overall)},
}

func drive[T any](fn func(io.Writer, experiments.Options) (T, error)) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, o experiments.Options) error {
		_, err := fn(w, o)
		return err
	}
}

// runner executes one workload at one seed inside this process.
type runner struct {
	w    *workload
	seed int64
	tmp  string // scratch directory for checkpoints and WALs
	// golden is the expected output digest for (workload, seed); empty
	// when none is recorded, in which case ops are only checked against
	// each other and the campaign invariants.
	golden string
	// digest is the first op's output digest; every later op must match.
	digest string
	// iterations is the campaign's expected simulated-iteration total.
	iterations int64
}

func newRunner(w *workload, seed int64, tmp, golden string) (*runner, error) {
	r := &runner{w: w, seed: seed, tmp: tmp, golden: golden}
	camp, err := campaign.New(r.spec())
	if err != nil {
		return nil, err
	}
	for _, j := range camp.Jobs() {
		r.iterations += int64(j.N)
	}
	return r, nil
}

// spec is the workload's campaign at this run's seed, with one
// executing job stream.
func (r *runner) spec() campaign.Spec {
	s := r.w.spec
	s.Seed = r.seed
	s.Workers = 1
	s.IntraWorkers = 1
	return s
}

func (r *runner) paperOptions() experiments.Options {
	o := r.w.paper
	o.Seed = r.seed
	o.Workers = 1
	return o
}

// prepared is one set-up op: a constructed campaign, or a fleet server
// with the campaign submitted.
type prepared struct {
	camp   *campaign.Campaign
	dir    string
	ts     *httptest.Server
	client *http.Client
	id     string
}

// setup builds what one op needs before its first shard runs: the
// corpus, its axiomatic classification and the job list (campaign.New),
// and for the fleet a durable server with the campaign submitted.
func (r *runner) setup() (*prepared, error) {
	dir, err := os.MkdirTemp(r.tmp, "op-")
	if err != nil {
		return nil, err
	}
	p := &prepared{dir: dir}
	if r.w.kind != kindFleet {
		p.camp, err = campaign.New(r.spec())
		if err != nil {
			r.teardown(p)
			return nil, err
		}
		return p, nil
	}
	srv := campaign.NewServer()
	srv.CheckpointDir = dir
	srv.WALDir = dir
	srv.WALSyncEvery = 1
	p.ts = httptest.NewServer(srv.Handler())
	p.client = &http.Client{Transport: &http.Transport{}}
	body, err := json.Marshal(r.spec())
	if err != nil {
		r.teardown(p)
		return nil, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := p.call(http.MethodPost, "/campaigns?mode=dispatch", body, http.StatusAccepted, &sub); err != nil {
		r.teardown(p)
		return nil, fmt.Errorf("submitting fleet campaign: %w", err)
	}
	p.id = sub.ID
	return p, nil
}

// call makes one request to the fleet server and decodes a JSON reply
// into out (or copies the raw body when out is a *[]byte).
func (p *prepared) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, p.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (r *runner) teardown(p *prepared) {
	if p.ts != nil {
		p.ts.Close()
		p.client.CloseIdleConnections()
	}
	os.RemoveAll(p.dir)
}

// op runs one prepared workload op to completion and returns the
// output the golden digest covers: the concatenated paper reports, or
// the campaign's canonical result document.
func (r *runner) op(ctx context.Context, p *prepared) ([]byte, error) {
	switch r.w.kind {
	case kindPaper:
		var buf bytes.Buffer
		for _, d := range paperDrivers {
			if err := d.run(&buf, r.paperOptions()); err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
		}
		return buf.Bytes(), nil
	case kindLocal:
		opts := campaign.Options{}
		if r.w.checkpointEvery > 0 {
			opts.CheckpointPath = filepath.Join(p.dir, "checkpoint.json")
			opts.CheckpointEvery = r.w.checkpointEvery
		}
		res, err := p.camp.Run(ctx, opts)
		if err != nil {
			return nil, err
		}
		return res.CanonicalJSON()
	}
	w := campaign.NewWorker(campaign.WorkerOptions{
		BaseURL: p.ts.URL, Campaign: p.id, Name: "bench-worker",
		Parallel: 1, Wire: "auto", Client: p.client,
	})
	if err := w.Run(ctx); err != nil {
		return nil, fmt.Errorf("fleet worker: %w", err)
	}
	// The dispatcher finishes the run on its own goroutine; results turn
	// readable (200 instead of 409) a moment after the last upload.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc []byte
		err := p.call(http.MethodGet, "/campaigns/"+p.id+"/results?format=canonical", nil, http.StatusOK, &doc)
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusConflict && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			continue
		}
		return doc, err
	}
}

// check validates one op's output: campaign documents must carry no
// failures or dead letters and the full iteration total, and every
// digest must equal the run's first and, when recorded, the golden one.
func (r *runner) check(out []byte) (string, error) {
	digest := sha256Hex(out)
	if r.w.kind != kindPaper {
		var doc struct {
			Totals   map[string]int64  `json:"totals"`
			Failures []json.RawMessage `json:"failures"`
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			return digest, fmt.Errorf("decoding canonical results: %w", err)
		}
		if len(doc.Failures) > 0 {
			return digest, fmt.Errorf("%d failed job(s) or dead letter(s)", len(doc.Failures))
		}
		if got := doc.Totals["iterations"]; got != r.iterations {
			return digest, fmt.Errorf("campaign merged %d iterations, want %d", got, r.iterations)
		}
	}
	if r.digest == "" {
		r.digest = digest
	} else if digest != r.digest {
		return digest, fmt.Errorf("output digest %s differs from the run's first %s", digest, r.digest)
	}
	if r.golden != "" && digest != r.golden {
		return digest, fmt.Errorf("output digest %s, golden %s", digest, r.golden)
	}
	return digest, nil
}
