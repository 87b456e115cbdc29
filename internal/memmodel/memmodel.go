// Package memmodel names the memory consistency models (SC, x86-TSO,
// SPARC PSO) and holds the operational reference for them: an explicit
// store-buffer machine (operational.go) that enumerates every reachable
// final state by brute-force interleaving. It plays the role the herd
// simulator plays in the PerpLE paper only as a cross-check — the
// allowed/forbidden decisions come from the axiomatic checker in
// internal/axiom, whose result sets must equal this machine's, and
// everything the simulated machine in internal/sim produces must be
// allowed here.
package memmodel

import "fmt"

// Model selects a memory consistency model.
type Model int

const (
	// SC is Lamport sequential consistency: a single interleaving of all
	// threads' operations in program order.
	SC Model = iota
	// TSO is total store ordering as implemented by x86 processors:
	// per-thread FIFO store buffers with store-to-load forwarding and a
	// single global order of stores.
	TSO
	// PSO is SPARC partial store ordering: per-thread, per-location store
	// buffers, so stores to different locations may drain out of program
	// order (W→W relaxed) in addition to TSO's W→R relaxation. Used by
	// the fault-injection experiment: a machine claiming TSO but
	// implementing PSO is a conformance bug PerpLE must catch.
	PSO
)

// Models lists the supported models from strongest to weakest.
var Models = []Model{SC, TSO, PSO}

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}
