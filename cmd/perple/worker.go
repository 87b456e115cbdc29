package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perple/internal/campaign"
)

// workerCmd is a fleet member for distributed campaigns: it pulls shard
// leases from a `perple serve` dispatch campaign over HTTP, executes
// them with the same job-execution step a local `perple suite` run uses,
// and streams batched results back in the PWB1 binary codec. Because
// shard seeds are identity-derived and result merging is
// order-invariant, a fleet of workers produces byte-identical final
// results to a local suite run of the same spec — workers can join,
// crash, and be replaced mid-run without affecting the outcome.
//
// Lifecycle: the first SIGINT/SIGTERM drains gracefully (in-flight jobs
// finish and upload, unstarted leases are released back to the queue);
// a second signal aborts immediately, leaving held leases to expire and
// requeue server-side. Logs are log/slog text records on stderr, keyed
// by campaign and worker.
//
//	perple serve -addr :8077 &
//	curl -X POST 'localhost:8077/campaigns?mode=dispatch' -d @spec.json   # → {"id":"c1",...}
//	perple worker -server http://localhost:8077 -campaign c1
//	perple worker -server http://host:8077 -campaign c1 -parallel 8 -name rack2-a
func workerCmd(args []string, _, stderr io.Writer) int {
	fl := newFlags("worker", stderr)
	server := fl.String("server", "http://localhost:8077", "perple serve base URL")
	campaignID := fl.String("campaign", "", "dispatch campaign id to work on (required)")
	name := fl.String("name", "", "worker name for lease accounting (default: hostname-pid)")
	parallel := fl.Int("parallel", 0, "concurrent jobs (default: GOMAXPROCS)")
	retries := fl.Int("retries", 5, "attempts per HTTP call before giving up")
	backoff := fl.Duration("backoff", 200*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	recoveryWindow := fl.Duration("recovery-window", 0, "keep retrying transport errors and 5xx this long even past -retries, to ride out a server restart (0 disables)")
	if fl.Parse(args) != nil {
		return 2
	}
	return report(fl, func() error {
		if *campaignID == "" {
			return errors.New("-campaign is required")
		}
		w := campaign.NewWorker(campaign.WorkerOptions{
			BaseURL:        *server,
			Campaign:       *campaignID,
			Name:           *name,
			Parallel:       *parallel,
			MaxAttempts:    *retries,
			BackoffBase:    *backoff,
			RecoveryWindow: *recoveryWindow,
		})
		log := slog.New(slog.NewTextHandler(stderr, nil)).With("campaign", *campaignID, "worker", w.Name())

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigs)
		go func() {
			<-sigs
			log.Info("draining: finishing in-flight jobs (signal again to abort)")
			w.Drain()
			<-sigs
			log.Info("aborting: held leases will expire and requeue")
			cancel()
		}()

		start := time.Now()
		err := w.Run(ctx)
		log.Info("worker done", "completed", w.JobsCompleted.Load(), "failed", w.JobsFailed.Load(),
			"elapsed", time.Since(start).Round(time.Millisecond))
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return err
	})
}
