package campaign

// Test hooks for the chaos suite. These live in a regular compile-unit
// file rather than export_test.go because the adversarial failover
// tests run from package campaign_test (they need internal/chaos, which
// imports campaign), and external test units only see the package's
// exported compile-unit surface — in-package test helpers are invisible
// to them (see internal/analysis/load.go). The hooks are no-ops for
// production callers: one is a read-only accessor, and the others set
// a callback or a batch size nothing in production code ever sets.

// DispatcherForTest returns the dispatcher behind a dispatch-mode run,
// or nil.
func (s *Server) DispatcherForTest(id string) *Dispatcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok {
		return r.dispatcher
	}
	return nil
}

// SetKillHookForTest installs the simulated kill -9 trigger: the hook
// runs at each named adversarial point (under the dispatcher mutex) and
// returning true flips the dispatcher into the killed state — all
// persistence stops while acknowledgments continue.
func (d *Dispatcher) SetKillHookForTest(hook func(point string) bool) {
	d.mu.Lock()
	d.killHook = hook
	d.mu.Unlock()
}

// SetLeaseBatchForTest fixes the jobs per batch of a worker built from
// o in place of the default batch size, so a test can pin an exchange
// shape: one upload per shard, or the batch the kill schedule of a
// failover test was written against.
func (o *WorkerOptions) SetLeaseBatchForTest(n int) { o.leaseBatch = n }
