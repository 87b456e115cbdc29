package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// updateGolden regenerates testdata/engine_golden.json from the current
// engine. The committed file was produced by the pre-bytecode
// struct-walk interpreter, so a passing TestEngineGolden proves the
// bytecode engine reproduces the struct engine's register files, final
// memory, tick counts, witness traces and perpetual buffers exactly,
// seed for seed.
var updateGolden = flag.Bool("sim.update-golden", false, "rewrite testdata/engine_golden.json from the current engine")

const goldenPath = "testdata/engine_golden.json"

// goldenKey names one run configuration deterministically.
func goldenKey(test string, shape string, mode Mode, model memmodel.Model, seed int64, n, witnessEvery int) string {
	k := fmt.Sprintf("%s/%s/%s/%s/seed=%d/n=%d", test, shape, mode, model, seed, n)
	if witnessEvery > 0 {
		k += fmt.Sprintf("/wit=%d", witnessEvery)
	}
	return k
}

// hashSynced canonically serializes everything a synced run produces.
func hashSynced(res *SyncedResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "ticks=%d n=%d\n", res.Ticks, res.N)
	for t, regs := range res.Regs {
		fmt.Fprintf(h, "regs%d=%v\n", t, regs)
	}
	fmt.Fprintf(h, "mem=%v\n", res.Mem)
	if res.Witnesses != nil {
		fmt.Fprintf(h, "rf=%v\nco=%v\nslots=%d every=%d\n",
			res.Witnesses.RF, res.Witnesses.Co, res.Witnesses.Slots, res.Witnesses.Every)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashPerpetual canonically serializes a perpetual run.
func hashPerpetual(res *PerpetualResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "ticks=%d n=%d\n", res.Ticks, res.Bufs.N)
	for t, b := range res.Bufs.Bufs {
		fmt.Fprintf(h, "buf%d=%v\n", t, b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRuns executes the fixture matrix and returns key -> hash.
func goldenRuns(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	const n = 300
	for _, name := range litmus.SuiteNames() {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
			for _, mode := range []Mode{ModeUser, ModeTimebase, ModeNone} {
				for _, seed := range []int64{1, 7} {
					cfg := DefaultConfig().WithSeed(seed)
					cfg.Relaxation = model
					// One witness-recording variant per test exercises the
					// rf/co emission path without doubling the whole matrix.
					if mode == ModeUser && model == memmodel.TSO && seed == 1 {
						cfg.WitnessEvery = 4
					}
					res, err := RunSynced(test, n, mode, cfg)
					if err != nil {
						t.Fatalf("%s %s: %v", name, mode, err)
					}
					got[goldenKey(name, "synced", mode, model, seed, n, cfg.WitnessEvery)] = hashSynced(res)
				}
			}
		}
		pt, err := core.Convert(test)
		if err != nil {
			continue // not convertible; synced coverage above suffices
		}
		for _, seed := range []int64{1, 7} {
			cfg := DefaultConfig().WithSeed(seed)
			res, err := RunPerpetual(pt, n, cfg)
			if err != nil {
				t.Fatalf("%s perpetual: %v", name, err)
			}
			got[goldenKey(name, "perpetual", ModeNone, memmodel.TSO, seed, n, 0)] = hashPerpetual(res)
		}
	}
	// The writer-only tail: safe022 and mp+fences each have a thread with
	// no loads, and only loads drain buffers, so once the reader finishes
	// the writer's ring grows to 8k–16k entries by n=10000. These pin
	// fence, drain and settle at buffer lengths the n=300 matrix never
	// reaches, under both the TSO FIFO and PSO's per-location order.
	const tailN = 10000
	for _, name := range []string{"safe022", "mp+fences"} {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := core.Convert(test)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range []string{"default", "pso"} {
			cfg, err := Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg = cfg.WithSeed(1)
			res, err := RunPerpetual(pt, tailN, cfg)
			if err != nil {
				t.Fatalf("%s perpetual %s: %v", name, preset, err)
			}
			got[goldenKey(name, "perpetual", ModeNone, cfg.Relaxation, 1, tailN, 0)] = hashPerpetual(res)
		}
	}
	return got
}

// TestEngineGolden holds the engine to the committed fixture hashes:
// any change to instruction dispatch, scheduling, RNG draw order or
// witness recording that alters observable run results fails here.
func TestEngineGolden(t *testing.T) {
	got := goldenRuns(t)
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("{\n")
		for i, k := range keys {
			comma := ","
			if i == len(keys)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "  %q: %q%s\n", k, got[k], comma)
		}
		b.WriteString("}\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixtures (regenerate with -sim.update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture count mismatch: committed %d, produced %d", len(want), len(got))
	}
	for k, wh := range want {
		gh, ok := got[k]
		if !ok {
			t.Errorf("missing run for committed fixture %s", k)
			continue
		}
		if gh != wh {
			t.Errorf("engine output diverged for %s:\n  committed %s\n  got       %s", k, wh, gh)
		}
	}
}
