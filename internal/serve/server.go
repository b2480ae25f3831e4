package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Config configures a Server over an already-built durable engine.
type Config struct {
	// Addr is the listen address (e.g. "127.0.0.1:0").
	Addr string
	// Durable is the durable engine the server owns, of any family that
	// publishes an engine.State (selective or local). The server puts its
	// log in serving (group-commit) mode and closes it on Shutdown.
	Durable *wal.Durable
	// Alg is ignored: the Durable's engine already names its algorithm.
	//
	// Deprecated: kept so existing callers compile.
	Alg algo.Selective
	// MaxSessions caps concurrent sessions, all roles (default 64).
	MaxSessions int
	// MaxPending caps batches admitted (logged) but not yet applied — the
	// server-wide backpressure window (default 64).
	MaxPending int
	// Metrics, when non-nil, receives serve.sessions, serve.rejected,
	// serve.group_commit_size, and serve.read_lag_ns.
	Metrics *metrics.Registry
}

func (c Config) maxSessions() int {
	if c.MaxSessions > 0 {
		return c.MaxSessions
	}
	return 64
}

func (c Config) maxPending() int {
	if c.MaxPending > 0 {
		return c.MaxPending
	}
	return 64
}

const (
	// sessionQueue caps each ingest session's decoded-but-unsubmitted
	// batches; overflow is a typed RejectSessionBusy.
	sessionQueue = 4
	// subBuffer caps buffered deltas per subscriber; a subscriber that
	// falls further behind is disconnected rather than allowed to stall
	// the applier.
	subBuffer = 32
)

// logged is one admitted batch riding from the group-commit callback to the
// applier: the WAL already holds it under seq.
type logged struct {
	seq uint64
	b   graph.Batch
	at  time.Time
}

// Server is the long-lived serving front-end: an acceptor, per-session
// goroutines feeding the WAL through the group-commit layer, one applier
// draining the logged queue through the engine in sequence order, and an
// atomically published engine.State per batch boundary that every reader
// answers from.
//
// Ordering contract: a batch is acknowledged only after it is durably
// logged, and the applier consumes batches in exactly the logged order —
// so the state any snapshot exposes is the state recovery would rebuild.
type Server struct {
	cfg Config
	b   *backend
	ln  net.Listener

	// tokens is the admission window: an ingest worker must place a token
	// (non-blocking) before appending, and the applier removes it after the
	// apply. applyQ has the same capacity, which makes the enqueue inside
	// the group-commit callback provably non-blocking.
	tokens chan struct{}
	applyQ chan logged

	snap atomic.Pointer[engine.State]

	mu       sync.Mutex
	draining bool
	stopped  bool  // Shutdown/Abort already ran (or is running)
	failed   error // first applier error; the server refuses new work
	degraded error // first append-path error; read-only until the prober recovers
	proberOn bool
	sessions map[*session]struct{}
	subs     map[*subscriber]struct{}

	acceptDone  chan struct{}
	applierDone chan struct{}
	stopProbe   chan struct{}
	sessWG      sync.WaitGroup
	proberWG    sync.WaitGroup

	mSessions  *metrics.Gauge
	mRejected  *metrics.Counter
	mGroupSize *metrics.Histogram
	mReadLag   *metrics.Histogram
	mDegraded  *metrics.Counter
	mRecovered *metrics.Counter
}

// New starts a server listening on cfg.Addr. The durable engine's log moves
// into serving mode; use Shutdown for a clean stop.
func New(cfg Config) (*Server, error) {
	if cfg.Durable == nil {
		return nil, errors.New("serve: Config.Durable is required")
	}
	backend, err := newBackend(cfg.Durable)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		b:           backend,
		tokens:      make(chan struct{}, cfg.maxPending()),
		applyQ:      make(chan logged, cfg.maxPending()),
		sessions:    make(map[*session]struct{}),
		subs:        make(map[*subscriber]struct{}),
		acceptDone:  make(chan struct{}),
		applierDone: make(chan struct{}),
		stopProbe:   make(chan struct{}),
	}
	if r := cfg.Metrics; r != nil {
		s.mSessions = r.Gauge("serve.sessions")
		s.mRejected = r.Counter("serve.rejected")
		s.mGroupSize = r.Histogram("serve.group_commit_size")
		s.mReadLag = r.Histogram("serve.read_lag_ns")
		s.mDegraded = r.Counter("serve.degraded_entries")
		s.mRecovered = r.Counter("serve.degraded_recoveries")
	}
	// Readers have a consistent answer from the first connection on, even
	// before any batch arrives.
	s.snap.Store(s.b.publish(s.b.Seq()))
	s.b.Group(func(seq uint64, b graph.Batch) {
		// Runs under the append mutex: enqueue in logged order. Never
		// blocks — admission tokens bound entries to cap(applyQ).
		s.applyQ <- logged{seq: seq, b: b, at: time.Now()}
	}, s.mGroupSize)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	go s.applier()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// State returns the currently published read state, the root every
// session answers from.
func (s *Server) State() *engine.State { return s.snap.Load() }

// Snapshot returns a flat copy of the currently published read state: an
// O(N) copy for tests and tools, not for the serving path.
func (s *Server) Snapshot() *engine.StateSnapshot { return s.snap.Load().Flat() }

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		s.sessWG.Add(1)
		go func() {
			defer s.sessWG.Done()
			s.serveConn(conn)
		}()
	}
}

// applier is the single consumer of the logged queue: it advances the
// engine batch by batch in WAL order, publishes an immutable state root at
// each boundary, and pushes the delta to subscribers.
func (s *Server) applier() {
	defer close(s.applierDone)
	for lg := range s.applyQ {
		s.mu.Lock()
		failed := s.failed
		s.mu.Unlock()
		if failed == nil {
			if _, err := s.b.ApplyLogged(context.Background(), lg.seq, lg.b); err != nil {
				// The batch is durably logged but the in-memory apply died;
				// refuse further work — recovery from the directory is the
				// consistent path (the WAL tail holds everything).
				s.mu.Lock()
				s.failed = err
				s.mu.Unlock()
			} else {
				prev := s.snap.Load()
				next := s.b.publish(lg.seq)
				s.snap.Store(next)
				if s.mReadLag != nil {
					s.mReadLag.Observe(time.Since(lg.at).Nanoseconds())
				}
				if deltas := next.Diff(prev); len(deltas) > 0 {
					s.fanout(vvList{Seq: lg.seq, Recs: deltas})
				}
			}
		}
		<-s.tokens // release the admission slot
	}
}

// fanout pushes one delta to every subscriber. A subscriber whose buffer is
// full is disconnected: readers must never exert backpressure on the apply
// path.
func (s *Server) fanout(m vvList) {
	s.mu.Lock()
	var drop []*subscriber
	for sub := range s.subs {
		select {
		case sub.ch <- m:
		default:
			drop = append(drop, sub)
		}
	}
	for _, sub := range drop {
		delete(s.subs, sub)
		close(sub.ch)
	}
	s.mu.Unlock()
}

// admit reserves one admission slot, returning a typed rejection when the
// server is draining, failed, degraded, or at its backpressure window.
func (s *Server) admit() *RejectError {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return &RejectError{Code: RejectDraining, Reason: "server draining"}
	}
	if s.failed != nil {
		s.mu.Unlock()
		return &RejectError{Code: RejectDraining, Reason: "server failed: " + s.failed.Error()}
	}
	if deg := s.degraded; deg != nil {
		s.mu.Unlock()
		return &RejectError{Code: RejectDegraded, Reason: "log unavailable: " + deg.Error()}
	}
	s.mu.Unlock()
	select {
	case s.tokens <- struct{}{}:
		return nil
	default:
		return &RejectError{Code: RejectOverloaded, Reason: fmt.Sprintf("admission window full (%d pending)", cap(s.tokens))}
	}
}

// Degraded reports whether the server is currently refusing ingest because
// the log cannot append (reads keep serving the published snapshot).
func (s *Server) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded != nil
}

// enterDegraded flips the server read-only after an append-path error and
// (once) starts the prober that tries to bring the log back. The triggering
// session already released its token; in-flight appends drain through the
// applier as usual — only *new* ingest is refused.
func (s *Server) enterDegraded(err error) {
	s.mu.Lock()
	if s.degraded == nil {
		s.degraded = err
		if s.mDegraded != nil {
			s.mDegraded.Inc()
		}
	}
	start := !s.proberOn && !s.stopped
	if start {
		s.proberOn = true
		s.proberWG.Add(1)
	}
	s.mu.Unlock()
	if start {
		go s.prober()
	}
}

// prober retries Durable.ReopenLog with capped exponential backoff until the
// log accepts appends again (degraded mode ends) or the server stops.
// ReopenLog itself refuses to run until the applier has drained everything
// the dead log generation acknowledged, so recovery never loses a logged
// batch.
func (s *Server) prober() {
	defer s.proberWG.Done()
	backoff := 2 * time.Millisecond
	for {
		select {
		case <-s.stopProbe:
			return
		case <-time.After(backoff):
		}
		if err := s.b.ReopenLog(); err != nil {
			if backoff *= 2; backoff > 100*time.Millisecond {
				backoff = 100 * time.Millisecond
			}
			continue
		}
		s.mu.Lock()
		s.degraded = nil
		s.proberOn = false
		if s.mRecovered != nil {
			s.mRecovered.Inc()
		}
		s.mu.Unlock()
		return
	}
}

// Shutdown drains and stops the server: new batches are rejected as
// draining, admitted batches finish applying, sessions get a bye, the final
// state is snapshotted (unless the engine died mid-apply), and the log is
// closed. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return errors.New("serve: already stopped")
	}
	s.stopped = true
	s.draining = true
	s.mu.Unlock()
	close(s.stopProbe)
	s.proberWG.Wait()
	s.ln.Close()
	<-s.acceptDone

	// Occupy the whole admission window: once every token is placed, no
	// batch is admitted-but-unapplied, so the engine is at a boundary.
	for i := 0; i < cap(s.tokens); i++ {
		select {
		case s.tokens <- struct{}{}:
		case <-ctx.Done():
			// A session may still be mid-append, so applyQ cannot be closed
			// safely; the process is exiting and recovery replays the WAL.
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		}
	}
	close(s.applyQ)
	<-s.applierDone
	var derr error

	s.mu.Lock()
	for sub := range s.subs {
		delete(s.subs, sub)
		close(sub.ch)
	}
	sess := make([]*session, 0, len(s.sessions))
	for c := range s.sessions {
		sess = append(sess, c)
	}
	failed := s.failed
	s.mu.Unlock()
	for _, c := range sess {
		c.bye("server shutting down")
	}
	s.sessWG.Wait()

	if derr == nil && failed == nil && !s.b.Dirty() {
		if err := s.b.Snapshot(); err != nil && !errors.Is(err, wal.ErrEngineDirty) {
			derr = err
		}
	}
	if err := s.b.Close(); err != nil && derr == nil {
		derr = err
	}
	if failed != nil && derr == nil {
		return fmt.Errorf("serve: applier failed: %w", failed)
	}
	return derr
}

// Abort is the in-process stand-in for kill -9: it stops the server WITHOUT
// a final snapshot, final fsync, or session byes — exactly the state a dead
// process leaves on disk. Chaos tests use it so the next Recover sees what a
// real crash would leave; production stops should use Shutdown.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.draining = true
	s.mu.Unlock()
	close(s.stopProbe)
	s.proberWG.Wait()
	s.ln.Close()
	<-s.acceptDone

	// Let in-flight appends land so the applier can be stopped by closing
	// its queue (goroutine hygiene, not durability: anything the dead
	// process had in memory is discarded anyway — recovery reads the disk).
	for i := 0; i < cap(s.tokens); i++ {
		s.tokens <- struct{}{}
	}
	close(s.applyQ)
	<-s.applierDone

	s.mu.Lock()
	for sub := range s.subs {
		delete(s.subs, sub)
		close(sub.ch)
	}
	sess := make([]*session, 0, len(s.sessions))
	for c := range s.sessions {
		sess = append(sess, c)
	}
	s.mu.Unlock()
	for _, c := range sess {
		c.conn.Close() // no bye: the peer sees the drop a crash produces
	}
	s.sessWG.Wait()
	s.b.Abandon()
}
