package sim

import (
	"encoding/json"
	"fmt"

	"perple/internal/memmodel"
)

// configJSON is the serialized form of Config; Relaxation travels as a
// model name so files stay readable.
type configJSON struct {
	Seed             int64   `json:"seed"`
	Relaxation       string  `json:"relaxation"`
	InstrCostMin     int64   `json:"instr_cost_min"`
	InstrCostMax     int64   `json:"instr_cost_max"`
	DrainMin         int64   `json:"drain_min"`
	DrainMax         int64   `json:"drain_max"`
	FenceCost        int64   `json:"fence_cost"`
	PerpIterOverhead int64   `json:"perp_iter_overhead"`
	PreemptProb      float64 `json:"preempt_prob"`
	PreemptMin       int64   `json:"preempt_min"`
	PreemptMax       int64   `json:"preempt_max"`
	SpeedJitterPct   int64   `json:"speed_jitter_pct"`
	LaunchSpread     int64   `json:"launch_spread"`
	ExhFrameTick     float64 `json:"exh_frame_tick"`
	HeurFrameTick    float64 `json:"heur_frame_tick"`
	TraceSize        int     `json:"trace_size,omitempty"`
	WitnessEvery     int     `json:"witness_every,omitempty"`
}

// MarshalJSON serializes the config with the relaxation as a model name.
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(configJSON{
		Seed:             c.Seed,
		Relaxation:       c.Relaxation.String(),
		InstrCostMin:     c.InstrCostMin,
		InstrCostMax:     c.InstrCostMax,
		DrainMin:         c.DrainMin,
		DrainMax:         c.DrainMax,
		FenceCost:        c.FenceCost,
		PerpIterOverhead: c.PerpIterOverhead,
		PreemptProb:      c.PreemptProb,
		PreemptMin:       c.PreemptMin,
		PreemptMax:       c.PreemptMax,
		SpeedJitterPct:   c.SpeedJitterPct,
		LaunchSpread:     c.LaunchSpread,
		ExhFrameTick:     c.ExhFrameTick,
		HeurFrameTick:    c.HeurFrameTick,
		TraceSize:        c.TraceSize,
		WitnessEvery:     c.WitnessEvery,
	})
}

// UnmarshalJSON parses a config; missing fields inherit DefaultConfig, so
// files only need the overrides.
func (c *Config) UnmarshalJSON(data []byte) error {
	def := DefaultConfig()
	cj := configJSON{
		Seed:             def.Seed,
		Relaxation:       def.Relaxation.String(),
		InstrCostMin:     def.InstrCostMin,
		InstrCostMax:     def.InstrCostMax,
		DrainMin:         def.DrainMin,
		DrainMax:         def.DrainMax,
		FenceCost:        def.FenceCost,
		PerpIterOverhead: def.PerpIterOverhead,
		PreemptProb:      def.PreemptProb,
		PreemptMin:       def.PreemptMin,
		PreemptMax:       def.PreemptMax,
		SpeedJitterPct:   def.SpeedJitterPct,
		LaunchSpread:     def.LaunchSpread,
		ExhFrameTick:     def.ExhFrameTick,
		HeurFrameTick:    def.HeurFrameTick,
	}
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	var rel memmodel.Model
	switch cj.Relaxation {
	case "TSO", "tso", "":
		rel = memmodel.TSO
	case "PSO", "pso":
		rel = memmodel.PSO
	default:
		return fmt.Errorf("sim: unknown relaxation %q (want TSO or PSO)", cj.Relaxation)
	}
	*c = Config{
		Seed:             cj.Seed,
		Relaxation:       rel,
		InstrCostMin:     cj.InstrCostMin,
		InstrCostMax:     cj.InstrCostMax,
		DrainMin:         cj.DrainMin,
		DrainMax:         cj.DrainMax,
		FenceCost:        cj.FenceCost,
		PerpIterOverhead: cj.PerpIterOverhead,
		PreemptProb:      cj.PreemptProb,
		PreemptMin:       cj.PreemptMin,
		PreemptMax:       cj.PreemptMax,
		SpeedJitterPct:   cj.SpeedJitterPct,
		LaunchSpread:     cj.LaunchSpread,
		ExhFrameTick:     cj.ExhFrameTick,
		HeurFrameTick:    cj.HeurFrameTick,
		TraceSize:        cj.TraceSize,
		WitnessEvery:     cj.WitnessEvery,
	}
	return c.validate()
}

// Presets are named machine configurations for experiments beyond the
// calibrated default:
//
//   - "default": the calibrated model of DESIGN.md;
//   - "pso": the default timing on the PSO (buggy) machine;
//   - "slow-drain": 4x store-buffer residency — weak outcomes everywhere,
//     useful to stress counter throughput;
//   - "fast-drain": near-immediate drains — weak outcomes become rare,
//     approximating a write-through machine;
//   - "no-preempt": no OS preemption — minimal thread skew;
//   - "heavy-preempt": 8x preemption — extreme skew, stress for the
//     perpetual frame analysis.
func Presets() map[string]Config {
	out := make(map[string]Config, len(presetNames))
	for _, name := range presetNames {
		out[name], _ = preset(name)
	}
	return out
}

// presetNames lists every preset, sorted.
var presetNames = []string{"default", "fast-drain", "heavy-preempt", "no-preempt", "pso", "slow-drain"}

// preset builds one named preset without building the others.
func preset(name string) (Config, bool) {
	c := DefaultConfig()
	switch name {
	case "default":
	case "pso":
		c.Relaxation = memmodel.PSO
	case "slow-drain":
		c.DrainMin *= 4
		c.DrainMax *= 4
	case "fast-drain":
		c.DrainMin = 0
		c.DrainMax = 2
	case "no-preempt":
		c.PreemptProb = 0
	case "heavy-preempt":
		c.PreemptProb *= 8
	default:
		return Config{}, false
	}
	return c, true
}

// Preset returns a named preset, with the available names in the error on
// a miss.
func Preset(name string) (Config, error) {
	if cfg, ok := preset(name); ok {
		return cfg, nil
	}
	return Config{}, fmt.Errorf("sim: unknown preset %q (have %v)", name, presetNames)
}
