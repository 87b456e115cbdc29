GO ?= go

.PHONY: build test race bench vet check lint fuzz chaos trace-verify loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static invariant checks: go vet plus perple-vet's four passes
# (nodeterminism, hotalloc, mergeorder, wirecompat) over the whole
# module. This is the gate CI runs; see DESIGN.md §15.
check: vet
	$(GO) run ./cmd/perple-vet ./...

# Historical alias for check (the old standalone determinism lint was
# absorbed into perple-vet's nodeterminism pass).
lint: check

# Short local fuzz passes over the litmus parser, over the axiomatic
# checker against the operational reference machine, over the trace
# checker against its quadratic reference, over the factorized counter
# against the odometer, over the counters' shared bound helpers against
# brute-force searches, over the two on-disk decoders a campaign
# resumes from — checkpoint load and WAL replay — and over the two
# network decoders, campaign specs and uploads (CI runs the seed
# corpora as ordinary tests and fuzzes the two checkers, the bound
# helpers and the four decoders for 20s each; this explores new inputs
# for longer).
fuzz:
	$(GO) test ./internal/litmus -fuzz FuzzParseRoundTrip -fuzztime 30s
	$(GO) test ./internal/axiom -run '^$$' -fuzz FuzzAxiomVsOperational -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzCheckerVsNaive -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzFactorizedVsOdometer -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzBoundsVsBruteForce -fuzztime 30s
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 30s
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzParseSpec -fuzztime 30s
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzCompleteRequestBinaryDecode -fuzztime 30s

# Long chaos soak: fault-injected loopback fleets under the race
# detector (ten fixed-seed rounds; CI runs the short variant). Seeds
# are fixed per round, so a failure replays its exact fault schedule
# on rerun.
chaos:
	$(GO) test ./internal/campaign -run TestChaos -race -count=1 -v -chaos.long

# Runtime conformance oracle: sampled witness-trace verification of the
# built-in suite on the default (TSO) machine, under the race detector.
# Exit status follows perple trace: 0 all witnesses consistent, 1
# violations found (a simulator conformance bug), 2 usage or error.
trace-verify:
	$(GO) run -race ./cmd/perple trace -suite -n 4000 -every 4

# Capture the sim/counter core benchmarks into BENCH_simcore.json
# (committed, so future PRs can diff the perf trajectory).
bench:
	./scripts/bench.sh

# Non-test Go lines outside bench/ and testdata/ (the repo root,
# cmd/, examples/ and internal/): the size measure ROADMAP.md tracks.
loc:
	@find *.go cmd examples internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l
