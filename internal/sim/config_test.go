package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"perple/internal/memmodel"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Relaxation = memmodel.PSO
	cfg.TraceSize = 128
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"relaxation":"PSO"`) {
		t.Errorf("relaxation not serialized by name: %s", data)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("round trip changed config:\n got %+v\nwant %+v", back, cfg)
	}
}

func TestConfigJSONPartialInheritsDefaults(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"seed": 9, "drain_max": 99}`), &cfg); err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.Seed != 9 || cfg.DrainMax != 99 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if cfg.InstrCostMax != def.InstrCostMax || cfg.PreemptProb != def.PreemptProb {
		t.Errorf("defaults not inherited: %+v", cfg)
	}
	if cfg.Relaxation != memmodel.TSO {
		t.Errorf("default relaxation = %v", cfg.Relaxation)
	}
}

func TestConfigJSONErrors(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"relaxation": "ARM"}`), &cfg); err == nil {
		t.Error("unknown relaxation accepted")
	}
	if err := json.Unmarshal([]byte(`{"instr_cost_min": -1}`), &cfg); err == nil {
		t.Error("invalid timing accepted (validate should run)")
	}
	if err := json.Unmarshal([]byte(`{bad json`), &cfg); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestPresets(t *testing.T) {
	for name, cfg := range Presets() {
		if err := cfg.validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	pso, err := Preset("pso")
	if err != nil {
		t.Fatal(err)
	}
	if pso.Relaxation != memmodel.PSO {
		t.Error("pso preset not PSO")
	}
	const miss = `sim: unknown preset "nope" (have [default fast-drain heavy-preempt no-preempt pso slow-drain])`
	if _, err := Preset("nope"); err == nil || err.Error() != miss {
		t.Errorf("miss should list presets:\n got %v\nwant %s", err, miss)
	}
	// Preset looks a name up without building the map; both must agree,
	// and Presets hands out a fresh map each call.
	all := Presets()
	for name, want := range all {
		if got, err := Preset(name); err != nil || got != want {
			t.Errorf("Preset(%q) = %+v, %v; Presets has %+v", name, got, err, want)
		}
	}
	delete(all, "default")
	if _, ok := Presets()["default"]; !ok {
		t.Error("Presets returned a shared map")
	}
	if avg := testing.AllocsPerRun(20, func() { Preset("pso") }); avg != 0 {
		t.Errorf("Preset allocates %.1f times per lookup, want 0", avg)
	}
	// Presets actually change machine behaviour: fast-drain makes the sb
	// target much rarer than slow-drain.
	test := mustSuiteTest(t, "sb")
	rate := func(preset string) int64 {
		cfg, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runSynced(test, 2000, ModeTimebase, cfg.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		var hits int64
		var scratch [][]int64
		for n := 0; n < res.N; n++ {
			scratch = registerFile(res, n, scratch)
			if test.Target.Holds(scratch) {
				hits++
			}
		}
		return hits
	}
	slow, fast := rate("slow-drain"), rate("fast-drain")
	if slow <= fast*2 {
		t.Errorf("slow-drain hits (%d) should far exceed fast-drain (%d)", slow, fast)
	}
}

func TestPresetNoPreemptShrinksSkew(t *testing.T) {
	pt := mustPerp(t, "sb")
	spread := func(preset string) int64 {
		cfg, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPerpetual(pt, 20000, cfg.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		var min, max int64
		for i, v := range res.Bufs.Bufs[0] {
			if v == 0 {
				continue
			}
			skew := int64(i) - (v - 1)
			if skew < min {
				min = skew
			}
			if skew > max {
				max = skew
			}
		}
		return max - min
	}
	if noPre, heavy := spread("no-preempt"), spread("heavy-preempt"); noPre >= heavy {
		t.Errorf("no-preempt skew range (%d) should be below heavy-preempt (%d)", noPre, heavy)
	}
}
