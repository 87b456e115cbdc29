// Command perple-worker is a fleet member for distributed campaigns: it
// pulls shard leases from a perple-serve dispatch campaign over HTTP,
// executes them with the same job-execution step a local perple-suite
// run uses, and streams batched results back in the PWB1 binary codec.
// Because shard seeds are identity-derived and result merging is
// order-invariant, a fleet of workers produces byte-identical final
// results to a local perple-suite run of the same spec — workers can
// join, crash, and be replaced mid-run without affecting the outcome.
//
// Lifecycle: the first SIGINT/SIGTERM drains gracefully (in-flight jobs
// finish and upload, unstarted leases are released back to the queue);
// a second signal aborts immediately, leaving held leases to expire and
// requeue server-side.
//
// Usage:
//
//	perple-serve -addr :8077 &
//	curl -X POST 'localhost:8077/campaigns?mode=dispatch' -d @spec.json   # → {"id":"c1",...}
//	perple-worker -server http://localhost:8077 -campaign c1
//	perple-worker -server http://host:8077 -campaign c1 -parallel 8 -name rack2-a
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perple/internal/campaign"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perple-worker: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "http://localhost:8077", "perple-serve base URL")
	campaignID := flag.String("campaign", "", "dispatch campaign id to work on (required)")
	name := flag.String("name", "", "worker name for lease accounting (default: hostname-pid)")
	parallel := flag.Int("parallel", 0, "concurrent jobs (default: GOMAXPROCS)")
	leaseBatch := flag.Int("lease-batch", 0, "jobs pulled per lease: the first lease call, idle polls, and each batch's final upload (default: -parallel)")
	heartbeat := flag.Duration("heartbeat", 0, "lease heartbeat period (default: a third of the server's lease TTL)")
	retries := flag.Int("retries", 5, "attempts per HTTP call before giving up")
	backoff := flag.Duration("backoff", 200*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	breakerFailures := flag.Int("breaker-failures", campaign.DefaultBreakerThreshold, "consecutive HTTP failures that open the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", campaign.DefaultBreakerCooldown, "how long an open circuit holds requests off")
	recoveryWindow := flag.Duration("recovery-window", 0, "keep retrying transport errors and 5xx this long even past -retries, to ride out a server restart (0 disables)")
	flag.Parse()

	if *campaignID == "" {
		return errors.New("-campaign is required")
	}

	w := campaign.NewWorker(campaign.WorkerOptions{
		BaseURL:          *server,
		Campaign:         *campaignID,
		Name:             *name,
		Parallel:         *parallel,
		LeaseBatch:       *leaseBatch,
		HeartbeatEvery:   *heartbeat,
		MaxAttempts:      *retries,
		BackoffBase:      *backoff,
		BreakerThreshold: *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
		RecoveryWindow:   *recoveryWindow,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("draining: finishing in-flight jobs (signal again to abort)")
		w.Drain()
		<-sigs
		log.Printf("aborting: held leases will expire and requeue")
		cancel()
	}()

	start := time.Now()
	err := w.Run(ctx)
	log.Printf("worker done: %d jobs completed, %d failed, %s elapsed",
		w.JobsCompleted.Load(), w.JobsFailed.Load(), time.Since(start).Round(time.Millisecond))
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
