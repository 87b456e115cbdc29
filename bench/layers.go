package main

// effect names an end-to-end metric a layer should move, and on which
// workloads. On every workload not listed, a change to the layer should
// leave that metric unchanged.
type effect struct {
	metric    string
	workloads []string
}

// layerRow is one per-layer metric of the traced run: the public calls
// its spans time and the end-to-end metrics it should move.
type layerRow struct {
	name  string
	unit  string
	calls string
	moves []effect
}

var (
	allWorkloads      = []string{wPaper, wLitmus7, wPerple, wFleet}
	campaignWorkloads = []string{wLitmus7, wPerple, wFleet}
	syncedWorkloads   = []string{wLitmus7, wFleet, wPaper}
	perpleWorkloads   = []string{wPerple, wPaper}
	persistWorkloads  = []string{wLitmus7, wFleet}
	fleetOnly         = []string{wFleet}
)

// layers is the layer→metric map, in a shard's call order. The traced
// run emits exactly these metrics on every workload; README.md renders
// the same table.
var layers = []layerRow{
	{"litmus.corpus_ms", "ms", "Spec.Corpus", []effect{{"setup_s", allWorkloads}}},
	{"axiom.classify_ms", "ms", "axiom.Analyze, every corpus test", []effect{{"setup_s", allWorkloads}}},
	{"campaign.new_ms", "ms", "campaign.New", []effect{{"setup_s", allWorkloads}}},
	{"core.convert_us", "us", "core.Convert + core.NewTargetCounter", []effect{{"wall_s", perpleWorkloads}, {"alloc_mb", perpleWorkloads}}},
	{"sim.compile_us", "us", "sim.Compile, or sim.CompilePerpetual", []effect{{"wall_s", campaignWorkloads}, {"alloc_mb", persistWorkloads}}},
	{"sim.synced_ns_per_iter", "ns/iter", "sim.NewRunner + Runner.RunSynced", []effect{{"wall_s", syncedWorkloads}}},
	{"harness.tally_ns_per_iter", "ns/iter", "NewLitmus7Runner + Run (verify off) minus the synced run", []effect{{"wall_s", syncedWorkloads}}},
	{"trace.verify_ns_per_witness", "ns/witness", "NewLitmus7Runner + SetTraceVerify + Run, minus verify off", []effect{{"wall_s", []string{wLitmus7}}}},
	{"trace.witnesses", "count", "witnesses checked by the stride-16 runs", []effect{{"wall_s", []string{wLitmus7}}}},
	{"sim.perpetual_ns_per_iter", "ns/iter", "sim.NewPerpetualRunner + Run", []effect{{"wall_s", perpleWorkloads}}},
	{"core.count_heur_ns_per_frame", "ns/frame", "Counter.CountHeuristicParallel(…, 1)", []effect{{"wall_s", perpleWorkloads}}},
	{"core.count_factorized_ms", "ms", "Counter.CountFactorized", []effect{{"wall_s", perpleWorkloads}}},
	{"core.count_odometer_ns_per_frame", "ns/frame", "Counter.CountExhaustiveParallel(…, 1) when CountFactorized declines", []effect{{"wall_s", perpleWorkloads}}},
	{"core.factorized_frac", "ratio", "exhaustive shards CountFactorized accepts", []effect{{"wall_s", perpleWorkloads}}},
	{"campaign.merge_us", "us", "Results.Add", []effect{{"wall_s", campaignWorkloads}}},
	{"campaign.canonical_ms", "ms", "Results.CanonicalJSON", []effect{{"wall_s", campaignWorkloads}}},
	{"campaign.checkpoint_ms", "ms", "campaign.SaveCheckpoint at the workload's cadence (64 jobs)", []effect{{"wall_s", persistWorkloads}}},
	{"campaign.checkpoint_kb", "KB", "size of those checkpoints, in KiB", []effect{{"wall_s", persistWorkloads}}},
	{"harness.wire_encode_us", "us", "harness.EncodeWireBinary of a one-result CompleteRequest", []effect{{"wall_s", fleetOnly}, {"alloc_mb", fleetOnly}}},
	{"harness.wire_decode_us", "us", "harness.DecodeWireBinary of the same", []effect{{"wall_s", fleetOnly}, {"alloc_mb", fleetOnly}}},
	{"harness.wire_bytes", "B", "encoded CompleteRequest size", []effect{{"wall_s", fleetOnly}}},
	{"campaign.lease_us", "us", "Dispatcher.Lease, no WAL", []effect{{"wall_s", fleetOnly}}},
	{"campaign.complete_us", "us", "Dispatcher.Complete, no WAL", []effect{{"wall_s", fleetOnly}}},
	{"campaign.lease_wal_us", "us", "Dispatcher.Lease, WAL synced every record", []effect{{"wall_s", fleetOnly}}},
	{"campaign.complete_wal_us", "us", "Dispatcher.Complete, WAL synced every record + compaction", []effect{{"wall_s", fleetOnly}, {"alloc_mb", fleetOnly}}},
	{"campaign.complete_growth", "ratio", "mean WAL Complete of the last decile of shards / the first", []effect{{"wall_s", fleetOnly}}},
	{"campaign.protocol_us_per_shard", "us/shard", "untraced wall_s minus the on-path spans, per shard", []effect{{"wall_s", campaignWorkloads}}},
	{"unattributed_frac", "ratio", "1 - on-path spans / untraced wall_s", []effect{{"wall_s", allWorkloads}}},
}
