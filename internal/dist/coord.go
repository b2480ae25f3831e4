// Package dist is the distributed GraphFly of §VI: a coordinator (this
// file) and worker processes (workerproc.go) exchanging framed messages
// (wire.go) over one TCP connection each (link.go). Each worker's durable
// state is a wal directory of batch log and worker snapshots
// (workerproc.go's workerStore). The runtime carries the selective
// algorithms (alg.go) and is bit-exact with the single-machine engines;
// graphfly -cluster runs it across processes, and Fig 16 runs it with
// in-process workers over loopback TCP.
package dist

// Coordinator: the Manager role of the GraphFly cluster protocol (§VI) over
// real sockets. It listens for worker processes, runs the membership
// handshake, replicates batch structure, assigns flows to workers (each
// worker trims its own key forest), routes every cross-worker record
// (star topology: candidates to the target's owner, shadow refreshes
// fanned to everyone else), detects quiescence by counter agreement, and
// collects the converged state at each batch boundary into vals and
// parent.
//
// Those two arrays are the one source of a worker's batch-start state. A
// joining worker receives them in its welcome, and so does every survivor
// when a worker dies mid-batch: the coordinator bumps the attempt epoch,
// welcomes the survivors with the boundary state at the in-flight seq,
// recomputes the flow-worker table over them, and rebroadcasts the same
// batch, which re-executes on the new membership. No partition state ever
// needs migrating off a dead machine: at every quiescent boundary each
// worker's full replica equals the global state (selective algorithms
// converge to a unique fixpoint, and every owner broadcasts every change of
// its vertices to every other worker), which is the dependency-flow
// argument for why crash recovery can be this simple. Workers write their
// checkpoints on their own (workerproc.go); the coordinator never waits
// for one.
//
// A worker whose connection ends has left: kill -9, a network reset and a
// silent peer look the same, and each is handled as the crash above.
// Restarted workers (kill -9 + respawn) present a hello carrying what their
// local WAL recovered; the coordinator replies with the missing batch tail
// from its in-memory history — or a full transfer when the tail has been
// evicted — and admits them at the next attempt or batch boundary,
// rebalancing flows onto the rejoined member.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/dflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// CoordConfig configures a Coordinator.
type CoordConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:0"; port 0 picks a free
	// port, readable back via Addr()).
	Addr string
	// FlowCap caps dependency-flow size (dflow.DefaultCap when 0).
	FlowCap int
	// CkptEvery makes workers checkpoint every N batches (default 4).
	CkptEvery int
	// BatchTimeout bounds one ProcessBatch call, recoveries included
	// (default 60s). Expiry returns ErrBatchTimeout.
	BatchTimeout time.Duration
	// HeartbeatEvery / PeerTimeout tune the links (see linkConfig; zero
	// picks the defaults).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Metrics receives dist.* counters and histograms when non-nil.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives human-readable progress lines.
	Logf func(format string, args ...any)
}

func (c CoordConfig) flowCap() int {
	if c.FlowCap <= 0 {
		return dflow.DefaultCap
	}
	return c.FlowCap
}

func (c CoordConfig) ckptEvery() int {
	if c.CkptEvery <= 0 {
		return 4
	}
	return c.CkptEvery
}

func (c CoordConfig) batchTimeout() time.Duration {
	if c.BatchTimeout <= 0 {
		return 60 * time.Second
	}
	return c.BatchTimeout
}

// historyCap bounds the in-memory applied-batch history used to catch up
// rejoining workers. A worker further behind gets a full state transfer
// instead.
const historyCap = 1024

func (c CoordConfig) linkConfig() linkConfig {
	return linkConfig{HeartbeatEvery: c.HeartbeatEvery, PeerTimeout: c.PeerTimeout}
}

// coordWorker is the coordinator's view of one worker process.
type coordWorker struct {
	id       int32
	link     *link
	live     bool       // welcomed into the current membership
	parked   *wireHello // join awaiting admission (nil once welcomed)
	parkedAt time.Time

	// Per-attempt (epoch) quiescence counters.
	fwd    uint64    // records forwarded to this worker
	recvUp uint64    // records received from it
	idle   *wireIdle // latest idle report matching the current epoch
	// collect is the worker's latest collect reply in the current epoch.
	collect *wireCollectReply
}

// Coordinator runs the cluster. Construct with NewCoordinator, feed batches
// with ProcessBatch, read converged state with Values, stop with Close.
type Coordinator struct {
	cfg CoordConfig
	alg algo.Selective

	algName string
	algSrc  uint32

	ln       net.Listener
	peerDown *metrics.Counter

	recoveryNs *metrics.Histogram
	rejoinNs   *metrics.Histogram
	rebalances *metrics.Counter
	// fwdRecs / fwdBytes count what routeData forwards: records and
	// encoded bundle bytes, every fan-out copy included.
	fwdRecs  *metrics.Counter
	fwdBytes *metrics.Counter

	mu     sync.Mutex
	cond   *sync.Cond
	g      *graph.Streaming
	vals   []float64
	parent []int32
	// failed, once a batch fails after it was applied, is every later
	// ProcessBatch's error: the graph and history hold a batch the
	// boundary state does not.
	failed error

	workers map[int32]*coordWorker
	nextID  int32

	boundarySeq uint64 // last fully completed batch
	curSeq      uint64 // batch in flight (boundarySeq+1), 0 at boundary
	epoch       uint64 // attempt epoch; bumped per BatchStart broadcast
	dirty       bool   // membership changed since the attempt started
	firstDeath  time.Time

	history map[uint64]graph.Batch
	histLow uint64 // lowest seq retained in history

	ownerTab []int32 // vertex -> worker id for the current attempt

	closed bool
}

// NewCoordinator solves the initial graph, starts listening, and returns.
// Workers may connect immediately; admit them with WaitForWorkers.
func NewCoordinator(g *graph.Streaming, alg algo.Selective, cfg CoordConfig) (*Coordinator, error) {
	name, src, err := selectiveWire(alg)
	if err != nil {
		return nil, err
	}
	vals, parent := algo.SolveSelective(g, alg)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Coordinator{
		cfg:        cfg,
		alg:        alg,
		algName:    name,
		algSrc:     src,
		ln:         ln,
		peerDown:   reg.Counter("dist.peer_down"),
		recoveryNs: reg.Histogram("dist.recovery_ns"),
		rejoinNs:   reg.Histogram("dist.rejoin_ns"),
		rebalances: reg.Counter("dist.rebalances"),
		fwdRecs:    reg.Counter("dist.routed_records"),
		fwdBytes:   reg.Counter("dist.routed_bytes"),
		g:          g,
		vals:       vals,
		parent:     parent,
		workers:    make(map[int32]*coordWorker),
		history:    make(map[uint64]graph.Batch),
		histLow:    1,
	}
	c.cond = sync.NewCond(&c.mu)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the actual listen address (useful with port 0).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// --- membership: accept, hello, admission ---

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.handleConn(conn)
	}
}

// handleConn runs the handshake on one inbound connection: the first frame
// must be a hello, which registers a (re)join parked until the next
// admission point. Every hello is a join: a worker that lost its
// connection is a member that left.
func (c *Coordinator) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(c.cfg.linkConfig().peerTimeout()))
	kind, payload, err := wal.ReadFrame(conn)
	if err != nil || kind != wkHello {
		conn.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return
	}
	id := h.ID
	if id < 0 {
		id = c.nextID
		c.nextID++
	} else if id >= c.nextID {
		c.nextID = id + 1
	}
	// If the id is still live, its old connection has not ended yet: the
	// new hello supersedes it, failing the current attempt before
	// re-admitting.
	if old := c.workers[id]; old != nil {
		if old.live {
			c.markDeadLocked(old, fmt.Errorf("worker %d: superseded by incarnation %d: %w", id, h.Incarnation, ErrPeerDown))
		}
		old.link.close()
	}
	hh := h
	hh.ID = id
	w := &coordWorker{id: id, parked: &hh, parkedAt: time.Now()}
	w.link = newLink(conn, c.cfg.linkConfig(), c.peerDown,
		func(mt byte, body []byte) { c.onWorkerMsg(w, mt, body) },
		func(err error) { c.onWorkerDown(w, err) })
	c.workers[id] = w
	c.logf("coord: worker %d joined (incarnation %d, structSeq %d, hasBase %v)",
		id, h.Incarnation, h.StructSeq, h.HasBase)
	c.cond.Broadcast()
}

// onWorkerDown handles a link going down: the worker has left.
func (c *Coordinator) onWorkerDown(w *coordWorker, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markDeadLocked(w, err)
}

// markDeadLocked removes a worker from the membership. The entry survives
// (a restart of the same id rejoins through it); only liveness and the
// current attempt are affected.
func (c *Coordinator) markDeadLocked(w *coordWorker, err error) {
	if w.parked != nil {
		w.parked = nil // a parked join that died never entered membership
	}
	if !w.live {
		return
	}
	w.live = false
	w.idle = nil
	c.dirty = true
	if c.curSeq != 0 && c.firstDeath.IsZero() {
		c.firstDeath = time.Now()
	}
	c.logf("coord: worker %d down: %v", w.id, err)
	c.cond.Broadcast()
}

// liveLocked returns the live workers in ascending id order.
func (c *Coordinator) liveLocked() []*coordWorker {
	var out []*coordWorker
	for id := int32(0); id < c.nextID; id++ {
		if w := c.workers[id]; w != nil && w.live {
			out = append(out, w)
		}
	}
	return out
}

// LiveWorkers reports the current live membership size.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.liveLocked())
}

// welcome is the state-only welcome at seq: the boundary values and
// parents, for a worker whose structure is already at seq.
func (c *Coordinator) welcome(id int32, seq uint64) wireWelcome {
	return wireWelcome{
		ID:        id,
		AlgName:   c.algName,
		Source:    c.algSrc,
		NumV:      uint32(c.g.NumVertices()),
		FlowCap:   uint32(c.cfg.flowCap()),
		CkptEvery: uint32(c.cfg.ckptEvery()),
		BatchSeq:  seq,
		Vals:      c.vals,
		Parent:    c.parent,
	}
}

// admitParkedLocked welcomes every parked join. welcomeSeq is the batch seq
// the transferred structure corresponds to: the boundary seq between
// batches, or the in-flight seq when admitting at a re-run attempt (the
// coordinator's replica already includes the in-flight structure).
func (c *Coordinator) admitParkedLocked(welcomeSeq uint64) {
	for id := int32(0); id < c.nextID; id++ {
		w := c.workers[id]
		if w == nil || w.parked == nil || w.link.isDown() {
			continue
		}
		h := *w.parked
		wl := c.welcome(w.id, welcomeSeq)
		switch {
		case h.HasBase && h.StructSeq == welcomeSeq:
			// Fully caught up structurally (e.g. died after logging the
			// in-flight batch): state arrays alone suffice.
		case h.HasBase && h.StructSeq < welcomeSeq && h.StructSeq+1 >= c.histLow:
			for s := h.StructSeq + 1; s <= welcomeSeq; s++ {
				wl.Catchup = append(wl.Catchup, c.history[s])
			}
		default:
			// Fresh worker, divergent worker, or history evicted: full dump.
			wl.Full = true
			wl.Edges = c.g.Edges()
		}
		if err := w.link.Send(encodeWelcome(wl)); err != nil {
			c.markDeadLocked(w, err)
			continue
		}
		w.parked = nil
		w.live = true
		c.rejoinNs.Observe(time.Since(w.parkedAt).Nanoseconds())
		c.logf("coord: worker %d admitted at seq %d (full=%v, catchup=%d)",
			w.id, welcomeSeq, wl.Full, len(wl.Catchup))
	}
}

// WaitForWorkers admits joins until n workers are live (or ctx expires).
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline {
		deadline = time.Now().Add(c.cfg.batchTimeout())
	}
	stop := context.AfterFunc(ctx, func() { c.cond.Broadcast() })
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.admitParkedLocked(c.boundarySeq)
		if len(c.liveLocked()) >= n {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := c.waitLocked(deadline); err != nil {
			return fmt.Errorf("dist: waiting for %d workers (%d live): %w", n, len(c.liveLocked()), err)
		}
	}
}

// waitLocked blocks on the condition variable until the next event or the
// deadline. Callers re-check their predicate in a loop.
func (c *Coordinator) waitLocked(deadline time.Time) error {
	if time.Now().After(deadline) {
		return ErrBatchTimeout
	}
	t := time.AfterFunc(time.Until(deadline), func() { c.cond.Broadcast() })
	c.cond.Wait()
	t.Stop()
	if time.Now().After(deadline) {
		return ErrBatchTimeout
	}
	return nil
}

// --- message handling (runs on link reader goroutines) ---

func (c *Coordinator) onWorkerMsg(w *coordWorker, mt byte, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	numV := c.g.NumVertices()
	var err error
	switch mt {
	case mtData:
		var m wireData
		if m, err = decodeData(body, numV); err == nil {
			c.routeData(w, m)
		}
	case mtIdle:
		var m wireIdle
		if m, err = decodeIdle(body); err == nil && w.live && m.Epoch == c.epoch {
			w.idle = &m
		}
	case mtCollectReply:
		var m wireCollectReply
		m, err = decodeCollectReply(body)
		if err == nil && w.live && m.Epoch == c.epoch && len(m.Vals) == numV && len(m.Parent) == numV {
			w.collect = &m
		}
	case mtBye:
		err = errors.New("worker sent bye")
	}
	if err != nil {
		// A bye, or a malformed message: either way the worker has left.
		c.markDeadLocked(w, err)
		w.link.close()
	}
	c.cond.Broadcast()
}

// routeData is the star-topology router: candidates go to the target
// vertex's owner, shadow refreshes fan out to every live worker except the
// sender. Records from a stale epoch (an aborted attempt) are dropped.
func (c *Coordinator) routeData(w *coordWorker, m wireData) {
	if !w.live || m.Epoch != c.epoch || c.curSeq == 0 {
		return
	}
	w.recvUp += uint64(len(m.Recs))
	live := c.liveLocked()
	out := make(map[*coordWorker][]engine.Rec)
	for _, r := range m.Recs {
		if r.Shadow {
			for _, o := range live {
				if o != w {
					out[o] = append(out[o], r)
				}
			}
		} else {
			o := c.workers[c.ownerOf(r.V)]
			if o != nil && o.live {
				out[o] = append(out[o], r)
			}
		}
	}
	var nRecs, nBytes int
	for o, recs := range out {
		o.fwd += uint64(len(recs))
		payload := encodeData(wireData{Epoch: m.Epoch, Recs: recs})
		nRecs += len(recs)
		nBytes += len(payload)
		if err := o.link.Send(payload); err != nil {
			c.markDeadLocked(o, err)
		}
	}
	c.fwdRecs.Add(int64(nRecs))
	c.fwdBytes.Add(int64(nBytes))
}

func (c *Coordinator) ownerOf(v uint32) int32 {
	if int(v) < len(c.ownerTab) {
		return c.ownerTab[v]
	}
	return -1
}

// --- batch processing ---

// quiescentLocked is the termination check for the current attempt: every
// live worker has reported idle for this epoch with counters agreeing with
// the coordinator's (a live link is one TCP connection, FIFO and
// exactly-once, so counter agreement proves nothing is in flight in either
// direction).
func (c *Coordinator) quiescentLocked() bool {
	live := c.liveLocked()
	if len(live) == 0 {
		return false
	}
	for _, w := range live {
		if w.idle == nil || w.idle.Processed != w.fwd || w.idle.Uploaded != w.recvUp {
			return false
		}
	}
	return true
}

// ProcessBatch streams one batch through the cluster: replicate structure,
// broadcast the flow table, route records until quiescence (re-running on
// membership changes), and collect the converged state. Bit-exact with the
// single-machine engines. A ctx already done or past its deadline is
// refused before anything changes; a batch that fails after it was
// applied fails every later call too, with an error that wraps its own.
func (c *Coordinator) ProcessBatch(ctx context.Context, batch graph.Batch) error {
	deadline := time.Now().Add(c.cfg.batchTimeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !time.Now().Before(deadline) {
		return fmt.Errorf("%w: the deadline passed before the batch started", ErrBatchTimeout)
	}
	stop := context.AfterFunc(ctx, func() { c.cond.Broadcast() })
	defer stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("dist: coordinator closed")
	}
	if c.failed != nil {
		return c.failed
	}
	if err := c.g.CheckBatch(batch); err != nil {
		return err
	}
	c.admitParkedLocked(c.boundarySeq)
	if c.alg.Symmetric() {
		batch = engine.Symmetrize(batch)
	}
	applied := c.g.ApplyBatch(batch)
	c.curSeq = c.boundarySeq + 1
	seq := c.curSeq
	c.history[seq] = applied
	for len(c.history) > historyCap {
		delete(c.history, c.histLow)
		c.histLow++
	}
	err := c.attemptsLocked(seq, applied, deadline)
	c.curSeq = 0
	if err != nil {
		c.failed = fmt.Errorf("dist: batch %d failed after it was applied, so the coordinator's graph is ahead of its state: %w", seq, err)
		return err
	}
	if !c.firstDeath.IsZero() {
		c.recoveryNs.Observe(time.Since(c.firstDeath).Nanoseconds())
		c.firstDeath = time.Time{}
	}
	c.boundarySeq = seq
	return nil
}

// attemptsLocked runs attempts of batch seq until one quiesces and its
// state is collected, re-running on every membership change.
func (c *Coordinator) attemptsLocked(seq uint64, applied graph.Batch, deadline time.Time) error {
	for reRun := false; ; reRun = true {
		// A re-run restarts every survivor from the boundary state. The
		// welcome goes out under the lock, so no record of the aborted
		// attempt reaches a survivor between it and the new BatchStart.
		if reRun {
			wl := c.welcome(0, seq)
			for _, w := range c.liveLocked() {
				wl.ID = w.id
				if err := w.link.Send(encodeWelcome(wl)); err != nil {
					c.markDeadLocked(w, err)
				}
			}
		}
		// Give killed-and-respawning workers a chance to join this very
		// attempt; with everyone gone (even before the first attempt: a
		// lost connection is seen at once) this is the only way forward.
		c.admitParkedLocked(seq)
		live := c.liveLocked()
		for len(live) == 0 {
			if err := c.waitLocked(deadline); err != nil {
				return fmt.Errorf("%w: %s", ErrNoWorkers, "all workers lost mid-batch")
			}
			c.admitParkedLocked(seq)
			live = c.liveLocked()
		}
		c.epoch++
		c.dirty = false
		// The flow table is derived from the boundary parents, the array
		// every member holds, so worker and coordinator compute identical
		// partitions independently. c.parent stays the boundary parents
		// until the collect: every attempt derives its flows from it and
		// welcomes its members with it.
		part := dflow.NewPartitionFromParents(c.parent, c.cfg.flowCap())
		assign := c.assignLocked(part, live)
		if reRun {
			c.rebalances.Inc()
		}
		bs := encodeBatchStart(wireBatchStart{Seq: seq, Epoch: c.epoch, Applied: applied, Assign: assign})
		for _, w := range live {
			w.fwd, w.recvUp, w.idle, w.collect = 0, 0, nil, nil
			if err := w.link.Send(bs); err != nil {
				c.markDeadLocked(w, err)
			}
		}
		c.logf("coord: batch %d epoch %d: %d workers, %d flows, rerun=%v",
			seq, c.epoch, len(live), part.NumFlows(), reRun)

		// Wait for quiescence, a membership change, or the deadline.
		for !c.dirty && !c.quiescentLocked() {
			if err := c.waitLocked(deadline); err != nil {
				return err
			}
		}
		if c.dirty {
			continue
		}

		// Collect the converged state from the lowest live worker (every
		// replica equals the global fixpoint at quiescence).
		collector := c.liveLocked()[0]
		if err := collector.link.Send(encodeCollect(wireCollect{Epoch: c.epoch, Seq: seq})); err != nil {
			c.markDeadLocked(collector, err)
		}
		for !c.dirty && collector.collect == nil {
			if err := c.waitLocked(deadline); err != nil {
				return err
			}
		}
		if !c.dirty {
			c.vals, c.parent = collector.collect.Vals, collector.collect.Parent
			return nil
		}
	}
}

// assignLocked places flows round-robin over the live workers and rebuilds
// the owner table — the Manager's flow-worker table of §VI.
func (c *Coordinator) assignLocked(part *dflow.Partition, live []*coordWorker) []int32 {
	assign := make([]int32, part.NumFlows())
	if len(c.ownerTab) != c.g.NumVertices() {
		c.ownerTab = make([]int32, c.g.NumVertices())
	}
	for f := int32(0); int(f) < part.NumFlows(); f++ {
		w := live[int(f)%len(live)]
		assign[f] = w.id
		for _, v := range part.Members(f) {
			c.ownerTab[v] = w.id
		}
	}
	return assign
}

// Values returns the converged values collected at the last boundary.
func (c *Coordinator) Values() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.vals...)
}

// BoundarySeq returns the last completed batch sequence.
func (c *Coordinator) BoundarySeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.boundarySeq
}

// Close sends Bye to every member, live or parked, and shuts the
// coordinator down. Each bye is followed by a half-close, and the link
// drains to the worker's EOF (bounded by PeerTimeout), so the bye is read
// before the connection ends.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var wg sync.WaitGroup
	for _, w := range c.workers {
		if !w.live && w.parked == nil {
			w.link.close()
			continue
		}
		wg.Add(1)
		go func(l *link) {
			defer wg.Done()
			l.shutdown(encodeReason(mtBye, "coordinator closing"))
		}(w.link)
	}
	c.mu.Unlock()
	wg.Wait()
	return c.ln.Close()
}
