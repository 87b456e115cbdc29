package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perple/internal/campaign"
)

// serveCmd runs the campaign engine as a long-lived HTTP service:
// clients submit campaign specs (litmus suite × machine presets × tools
// × iteration budget), the service shards them and executes them
// in-process or serves them to `perple worker` fleets, and progress,
// metrics, and merged results are observable while runs are in flight.
// Campaigns checkpoint under -checkpoint-dir, so a run killed with the
// service resumes when the same spec is resubmitted against the same
// checkpoint file.
//
// Endpoints:
//
//	GET  /healthz                    liveness probe
//	GET  /metrics                    aggregate scheduler gauges (JSON, or
//	                                 Prometheus text when Accept asks for it)
//	POST /campaigns                  submit a spec JSON, returns {"id": ...};
//	                                 ?mode=dispatch queues for remote workers
//	GET  /campaigns                  list campaigns
//	GET  /campaigns/{id}             status + metrics snapshot
//	GET  /campaigns/{id}/results     merged totals once finished
//	                                 (?format=canonical for the byte-stable JSON)
//	POST /campaigns/{id}/cancel      abort a running campaign
//	GET  /campaigns/{id}/corpus      dispatch: spec + test sources for workers
//	POST /campaigns/{id}/lease       dispatch: grant shard leases to a worker
//	POST /campaigns/{id}/heartbeat   dispatch: extend held leases
//	POST /campaigns/{id}/complete    dispatch: upload batched results (PWB1)
//
// With -pprof the net/http/pprof profiling endpoints are mounted under
// /debug/pprof/ — off by default because they expose internals. Logs
// are log/slog text records on stderr, keyed by addr.
//
//	perple serve -addr :8077 -checkpoint-dir /var/lib/perple
//	curl -X POST localhost:8077/campaigns -d '{"dir":"testdata/suite","tools":["mixed"],"iterations":20000,"shard_size":5000}'
//	curl -X POST 'localhost:8077/campaigns?mode=dispatch' -d @spec.json   # then point perple worker at it
func serveCmd(args []string, _, stderr io.Writer) int {
	fl := newFlags("serve", stderr)
	addr := fl.String("addr", ":8077", "listen address")
	checkpointDir := fl.String("checkpoint-dir", "", "directory for per-campaign checkpoint files (empty disables checkpointing)")
	checkpointEvery := fl.Int("checkpoint-every", 0, "floor of the doubling snapshot interval: save once the jobs finished since the last snapshot reach max(n, jobs in it); with -wal each save compacts the log (0: 64)")
	leaseTTL := fl.Duration("lease-ttl", campaign.DefaultLeaseTTL, "dispatch lease TTL before an unheartbeated shard requeues")
	walDir := fl.String("wal", "", "directory for per-campaign dispatch write-ahead logs (requires -checkpoint-dir; empty disables the durable dispatch plane)")
	walSyncEvery := fl.Int("wal-sync-every", 0, "group commit: fsync the WAL at the end of a dispatcher exchange once n records are unsynced (0 or 1: every exchange that logged a record, before its reply)")
	pprofOn := fl.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if fl.Parse(args) != nil {
		return 2
	}
	return report(fl, func() error {
		log := slog.New(slog.NewTextHandler(stderr, nil)).With("addr", *addr)
		srv := campaign.NewServer()
		srv.LeaseTTL = *leaseTTL
		srv.CheckpointEvery = *checkpointEvery
		if *checkpointDir != "" {
			if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
				return err
			}
			srv.CheckpointDir = *checkpointDir
		}
		if *walDir != "" {
			if *checkpointDir == "" {
				return errors.New("-wal requires -checkpoint-dir (the log compacts into the checkpoint)")
			}
			if err := os.MkdirAll(*walDir, 0o755); err != nil {
				return err
			}
			srv.WALDir = *walDir
			srv.WALSyncEvery = *walSyncEvery
		}

		handler := srv.Handler()
		if *pprofOn {
			// The campaign mux owns "/", so pprof gets its own prefix mux
			// in front rather than the DefaultServeMux side-registration.
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/", handler)
			handler = mux
			log.Info("pprof enabled", "path", "/debug/pprof/")
		}

		httpSrv := &http.Server{
			Addr:              *addr,
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
		}

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		errCh := make(chan error, 1)
		go func() {
			log.Info("listening")
			errCh <- httpSrv.ListenAndServe()
		}()

		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
		}

		// Graceful shutdown: abort campaigns (their checkpoints persist),
		// then drain HTTP connections.
		log.Info("shutting down")
		srv.CancelAll()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
}
