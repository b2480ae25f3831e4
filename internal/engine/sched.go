package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
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
func watchCancel(ctx context.Context, pl *wsPool) (stop func()) {
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

// The unit state machine: activate moves idle -> queued or running ->
// pending with a CAS, a worker moves queued -> running on dispatch, and on
// close-out running -> idle, or pending -> queued (one re-run however many
// activations landed mid-run).
const (
	unitIdle int32 = iota
	unitQueued
	unitRunning
	unitPending // running, with new work arrived
)

// unit is one scheduling unit: one flow, in its band.
type unit struct {
	id    int32
	flow  int32
	band  uint8 // bandSeeded or bandReached
	state atomic.Int32

	// enqueuedNs is the activation timestamp feeding the dispatch-wait
	// histogram; written under the home shard's lock on push and read by
	// the worker that pops the unit.
	enqueuedNs int64

	// carry holds the worklist an accumulative unit leaves when it yields
	// after one local round; its next activation starts there. Only the
	// unit's current runner touches it, so no lock is needed.
	carry []uint32
}

// schedStats are one run's scheduling counters, exported through
// BatchStats and internal/metrics for the scaling experiments.
type schedStats struct {
	Dispatches int64 // units handed to workers
	Steals     int64 // dispatches served from another worker's deque
	Parks      int64 // idle backoff sleeps
}

// newScheduler builds the scheduler for one batch. When metrics are
// enabled the scheduler feeds the dispatch-wait histogram (time from
// activation to dispatch) directly into the registry.
func (c Config) newScheduler() *wsPool {
	var h *metrics.Histogram
	if c.Metrics != nil {
		h = c.Metrics.Histogram("sched.dispatch_wait_ns")
	}
	return newWSPool(c.workers(), h)
}

// A shard keeps two FIFO bands. Band 0 holds the flows the batch seeded,
// queued in ascending flow id (except that SSSP's seeding queues the ones
// its addition messages reach first); band 1 the flows that only a message
// reaches, in activation order. Workers drain band 0 first. Two bands and
// not one FIFO: in one FIFO a seeded flow re-activated by a message waits
// behind the message-reached flows queued before it, and that changes the
// work (DESIGN.md §4.7).
//
// They replace the eight level bands of the paper's space-time schedule
// (§V-A: SCC condensation of the impacted flows, then levels). No measured
// batch had more than one level — BatchStats.Levels was 1 on every batch of
// Fig 11's datasets and of the repository benchmark — so the schedule only
// ever produced flow-id order (EXPERIMENTS.md, "Space-time order: the
// bound, and its removal").
const (
	bandSeeded  uint8 = 0
	bandReached uint8 = 1
	wsBands           = 2
)

// wsDeque is a FIFO of units: append at the tail, pop at the head. The head
// index creeps forward and the buffer compacts once the dead prefix
// dominates, keeping pops O(1) without unbounded growth.
type wsDeque struct {
	head  int
	items []*unit
}

func (d *wsDeque) push(u *unit) { d.items = append(d.items, u) }

func (d *wsDeque) pop() *unit {
	if d.head >= len(d.items) {
		return nil
	}
	u := d.items[d.head]
	d.items[d.head] = nil
	d.head++
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	} else if d.head > 64 && d.head*2 > len(d.items) {
		n := copy(d.items, d.items[d.head:])
		for i := n; i < len(d.items); i++ {
			d.items[i] = nil
		}
		d.items = d.items[:n]
		d.head = 0
	}
	return u
}

// wsShard is one worker's run queue. size is maintained under mu but read
// without it by thieves choosing a victim; a stale read only misdirects a
// steal attempt, never loses work (termination rests on wsPool.outstanding,
// not on size).
type wsShard struct {
	mu    sync.Mutex
	bands [wsBands]wsDeque
	size  atomic.Int64
}

// popLowest removes the unit at the head of the earliest non-empty band.
func (s *wsShard) popLowest() *unit {
	if s.size.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	for b := range s.bands {
		if u := s.bands[b].pop(); u != nil {
			s.size.Add(-1)
			s.mu.Unlock()
			return u
		}
	}
	s.mu.Unlock()
	return nil
}

// wsPool is the unit scheduler: it runs scheduling units (one flow each) to
// quiescence. Each worker owns one shard (two banded FIFO deques), units
// assigned to a home shard by hashing their id. A worker pops the
// lowest-banded unit of its own shard; when the shard is dry it steals from
// the most loaded victim, again preferring band 0, so the order survives
// without any global ordering structure — as a cache-efficiency heuristic
// only: the trimmed-bit and delta-push protocols make results independent
// of dispatch order. Handoff is the unit state machine above, and quiescence
// is a single atomic counter of non-idle units — no mutex is shared across
// workers on the dispatch path, which is what lets throughput scale with
// the worker count.
//
// At one worker there is one shard and nothing to steal: the seeded units
// run first, in the order they were queued, then the message-reached ones,
// in activation order (both bands are FIFO; a seeded unit re-activated while
// band 1 runs goes back to band 0 and runs next). That sequential execution
// is the reference the parallel runs are held to (internal/oracle's
// WorkerBitExact sweep).
type wsPool struct {
	shards []wsShard
	// outstanding counts units not idle (queued + running + pending): the
	// quiescence condition is outstanding == 0.
	outstanding atomic.Int64
	// stopped makes workers drain out after their current unit (interrupt).
	stopped atomic.Bool

	dispatches atomic.Int64
	steals     atomic.Int64
	parks      atomic.Int64
	waitHist   *metrics.Histogram
}

// newWSPool sizes the pool for the given worker count (one shard each).
// waitHist, when non-nil, receives activation-to-dispatch latencies.
func newWSPool(workers int, waitHist *metrics.Histogram) *wsPool {
	if workers < 1 {
		workers = 1
	}
	return &wsPool{shards: make([]wsShard, workers), waitHist: waitHist}
}

// homeShard hashes a unit to its owning shard, spreading flows evenly so
// external activations (the manager seeding a batch, cross-flow messages)
// distribute load without knowing which goroutine sent them.
func (p *wsPool) homeShard(u *unit) *wsShard {
	return &p.shards[rng.Mix64(uint64(uint32(u.id)))%uint64(len(p.shards))]
}

func (p *wsPool) push(u *unit) {
	s := p.homeShard(u)
	s.mu.Lock()
	if p.waitHist != nil {
		u.enqueuedNs = time.Now().UnixNano()
	}
	s.bands[u.band].push(u)
	s.size.Add(1)
	s.mu.Unlock()
}

// activate queues u if idle, or flags it pending if running. Safe from any
// goroutine, including workers mid-unit and external producers.
func (p *wsPool) activate(u *unit) {
	for {
		switch s := u.state.Load(); s {
		case unitIdle:
			if u.state.CompareAndSwap(unitIdle, unitQueued) {
				p.outstanding.Add(1)
				p.push(u)
				return
			}
		case unitQueued, unitPending:
			return
		case unitRunning:
			if u.state.CompareAndSwap(unitRunning, unitPending) {
				return
			}
		default:
			return
		}
	}
}

// next finds the next unit for worker w: own shard first (lowest band),
// then a steal from the most loaded victim, then a full sweep in case the
// size hints were stale. Returns nil when no queued unit was found.
func (p *wsPool) next(w int) *unit {
	home := w % len(p.shards)
	if u := p.shards[home].popLowest(); u != nil {
		p.dispatched(u, false)
		return u
	}
	best, bestLoad := -1, int64(0)
	for i := range p.shards {
		if i == home {
			continue
		}
		if l := p.shards[i].size.Load(); l > bestLoad {
			best, bestLoad = i, l
		}
	}
	if best >= 0 {
		if u := p.shards[best].popLowest(); u != nil {
			p.dispatched(u, true)
			return u
		}
	}
	for i := range p.shards {
		if i == home || i == best {
			continue
		}
		if u := p.shards[i].popLowest(); u != nil {
			p.dispatched(u, true)
			return u
		}
	}
	return nil
}

func (p *wsPool) dispatched(u *unit, stolen bool) {
	p.dispatches.Add(1)
	if stolen {
		p.steals.Add(1)
	}
	if p.waitHist != nil {
		p.waitHist.Observe(time.Now().UnixNano() - u.enqueuedNs)
	}
}

// backoff yields the processor while the pool is busy elsewhere: a few
// Gosched rounds, then sleeps doubling from 2µs to a 64µs cap so a worker
// blocked on a long-running sibling unit does not burn its core.
func (p *wsPool) backoff(spins *int) {
	*spins++
	if *spins <= 8 {
		runtime.Gosched()
		return
	}
	p.parks.Add(1)
	time.Sleep(time.Duration(1) << uint(min(*spins-8, 6)) * time.Microsecond)
}

// run processes units with the given number of workers until quiescent: it
// returns only when no unit is queued, running, or pending. fn must process
// one unit completely (drain its inboxes and worklists).
func (p *wsPool) run(workers int, fn func(w int, u *unit)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spins := 0
			for {
				if p.stopped.Load() {
					return // interrupted
				}
				u := p.next(w)
				if u == nil {
					if p.outstanding.Load() == 0 {
						return // globally quiescent
					}
					p.backoff(&spins)
					continue
				}
				spins = 0
				u.state.Store(unitRunning)
				fn(w, u)
				// Close out; re-queue if messages arrived while running.
				if u.state.CompareAndSwap(unitRunning, unitIdle) {
					p.outstanding.Add(-1)
					continue
				}
				u.state.Store(unitQueued)
				p.push(u)
			}
		}(w)
	}
	wg.Wait()
}

// interrupt makes run return as soon as every in-flight unit callback
// finishes, abandoning queued and pending units: each worker exits before
// dispatching its next unit. Safe from any goroutine, idempotent, and
// permanent for this pool — it is how context cancellation reaches a
// wedged batch.
func (p *wsPool) interrupt() { p.stopped.Store(true) }

func (p *wsPool) stats() schedStats {
	return schedStats{
		Dispatches: p.dispatches.Load(),
		Steals:     p.steals.Load(),
		Parks:      p.parks.Load(),
	}
}
