package engine

import (
	"context"
	"errors"

	"repro/internal/metrics"
)

// ErrCanceled reports a ProcessBatchCtx call on an engine whose earlier
// batch was aborted by context cancellation: the in-memory state is
// mid-refinement and must be rebuilt (or recovered from a WAL+snapshot)
// before processing can continue.
var ErrCanceled = errors.New("engine: prior batch canceled; state requires recovery")

// watchCancel arranges for pl to be interrupted when ctx is canceled. The
// returned stop function must be called once the run completes; a late
// interrupt on an already-finished scheduler is harmless (schedulers are
// per-batch), so the watcher needs no further synchronization.
func watchCancel(ctx context.Context, pl scheduler) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			pl.interrupt()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// scheduler runs scheduling units (single flows or merged cyclic groups) to
// global quiescence. Both implementations share the unit state machine
// (idle/queued/running/pending) declared in pool.go: activate is safe from
// any goroutine — including workers mid-unit and external producers — and
// run returns only when no unit is queued, running, or pending.
//
// Correctness never depends on dispatch order (the trimmed-bit and
// delta-push protocols tolerate any interleaving); level preference is the
// paper's space-time cache-efficiency lever, a heuristic only.
type scheduler interface {
	activate(u *unit)
	run(workers int, fn func(w int, u *unit))
	// interrupt makes run return as soon as every in-flight unit callback
	// finishes, abandoning queued and pending units. Safe from any
	// goroutine, idempotent, and permanent for this scheduler instance —
	// it is how context cancellation reaches a wedged batch.
	interrupt()
	stats() schedStats
}

// schedStats are one run's scheduling counters, exported through
// BatchStats and internal/metrics for the scaling experiments.
type schedStats struct {
	Dispatches int64 // units handed to workers
	Steals     int64 // dispatches served from another worker's deque
	Parks      int64 // idle waits (condvar waits or backoff sleeps)
}

// SchedulerKind selects the unit scheduler implementation.
type SchedulerKind int

const (
	// SchedWorkStealing is the default scheduler: per-worker deques banded
	// by schedule level, lock-free unit handoff through the atomic state
	// machine, and atomic-counter quiescence detection. Owners pop their
	// lowest-level local unit; idle workers steal from the most loaded
	// victim, preferring earlier levels.
	SchedWorkStealing SchedulerKind = iota
	// SchedGlobal is the reference implementation retained for conformance
	// testing: a single mutex-protected level heap with condvar wakeups. It
	// serializes every dispatch, so it stops scaling past a few workers.
	SchedGlobal
)

// String names the kind in test and benchmark names.
func (k SchedulerKind) String() string {
	switch k {
	case SchedWorkStealing:
		return "worksteal"
	case SchedGlobal:
		return "global"
	}
	return "unknown"
}

// newScheduler builds the configured scheduler for one batch. When metrics
// are enabled the scheduler feeds the dispatch-wait histogram (time from
// activation to dispatch) directly into the registry.
func (c Config) newScheduler() scheduler {
	var h *metrics.Histogram
	if c.Metrics != nil {
		h = c.Metrics.Histogram("sched.dispatch_wait_ns")
	}
	if c.Scheduler == SchedGlobal {
		return newPool(h)
	}
	return newWSPool(c.workers(), h)
}
