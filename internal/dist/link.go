package dist

// Reliable link over a real net.Conn. The contract the runtime above relies
// on: per-link FIFO delivery of sequenced messages, each delivered exactly
// once (dedup by sequence number), cumulative acks, retransmission with
// exponential backoff, and capped retries that degrade to the typed
// ErrPeerDown instead of retransmitting forever.
//
// FIFO is a correctness requirement, not a convenience. A shadow record
// overwrites the receiver's copy unconditionally, so two refreshes of one
// vertex applied out of order leave the older value behind; and the
// coordinator declares quiescence when each worker's processed / uploaded
// counters equal its own forwarded / received counts, which proves nothing
// is in flight only if no record is lost or delivered twice.
//
// TCP already provides ordering and retransmission *within one connection*;
// the link exists for what TCP does not survive: the connection dying. Seq
// state (nextSeq, pending, nextExpect, reorder buffer) lives in the link,
// not the conn, so a soft reconnect — client redial, or server re-attach of
// a fresh conn carrying the same (id, incarnation) hello — resumes exactly
// where the old socket broke: pending frames are retransmitted, duplicates
// the peer already delivered are dropped by seq, and FIFO order is
// preserved across the splice. Only a hard reset (a peer restarting with a
// new incarnation) zeroes the sequence space, and that is a membership
// event handled above this layer.
//
// Down conversion is fail-stop: a pending frame retransmitted MaxRetries
// times, or a link left without a usable conn (or without any
// inbound frame) past PeerTimeout, marks the link down, fires onDown(
// ErrPeerDown) exactly once, and refuses further sends. The membership
// layer then treats the peer as crashed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// linkConfig tunes one link's timers. The zero value picks defaults suited
// to localhost chaos tests: fast enough that a SIGKILL is detected in well
// under a second, slow enough that a loaded CI machine does not false-positive.
type linkConfig struct {
	HeartbeatEvery time.Duration // ping cadence while attached (default 100ms)
	RetransBase    time.Duration // base retransmit timeout (default 150ms)
	MaxRetries     int           // retransmissions per frame before down (default 16)
	PeerTimeout    time.Duration // silence / detachment tolerated before down (default 2s)
	Tick           time.Duration // timer goroutine resolution (default 25ms)
}

func (c linkConfig) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return 100 * time.Millisecond
	}
	return c.HeartbeatEvery
}

func (c linkConfig) retransBase() time.Duration {
	if c.RetransBase <= 0 {
		return 150 * time.Millisecond
	}
	return c.RetransBase
}

func (c linkConfig) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 16
	}
	return c.MaxRetries
}

func (c linkConfig) peerTimeout() time.Duration {
	if c.PeerTimeout <= 0 {
		return 2 * time.Second
	}
	return c.PeerTimeout
}

func (c linkConfig) tick() time.Duration {
	if c.Tick <= 0 {
		return 25 * time.Millisecond
	}
	return c.Tick
}

// linkMetrics bundles the dist.* counters a link reports into. Built via
// newLinkMetrics so every field is always non-nil.
type linkMetrics struct {
	retransmits *metrics.Counter // dist.retransmits
	reconnects  *metrics.Counter // dist.reconnects
	peerDown    *metrics.Counter // dist.peer_down
	dups        *metrics.Counter // dist.dups_discarded
}

func newLinkMetrics(reg *metrics.Registry) linkMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return linkMetrics{
		retransmits: reg.Counter("dist.retransmits"),
		reconnects:  reg.Counter("dist.reconnects"),
		peerDown:    reg.Counter("dist.peer_down"),
		dups:        reg.Counter("dist.dups_discarded"),
	}
}

// linkPending is one unacked sequenced frame awaiting acknowledgment.
type linkPending struct {
	seq     uint64
	frame   []byte // complete encoded wkMsg frame, ready to rewrite
	sentAt  time.Time
	retries int
}

// link is one reliable peer connection. Safe for concurrent use; onMsg is
// invoked from the reader goroutine, strictly in sequence order, without
// any link lock held (so handlers may call Send).
type link struct {
	cfg linkConfig
	met linkMetrics

	// onMsg receives each application message exactly once, in FIFO order.
	onMsg func(msgType byte, body []byte)
	// onDown fires exactly once when the link degrades to ErrPeerDown. It
	// runs on the timer goroutine and must not block for long.
	onDown func(err error)
	// dial, when non-nil, makes this the client side: the link redials on
	// conn failure and replays the hello before resuming.
	dial  func() (net.Conn, error)
	hello []byte // encoded wkHello payload resent on every successful dial

	deliverMu sync.Mutex // serializes in-order flush + onMsg across conn swaps

	mu         sync.Mutex
	conn       net.Conn
	connGen    uint64 // bumped per attach; readers exit when theirs is stale
	nextSeq    uint64
	pending    []linkPending
	nextExpect uint64
	reorder    map[uint64][]byte
	lastRecv   time.Time
	lastPing   time.Time
	detachedAt time.Time // when the link last lost its conn; zero while attached
	redialing  bool
	down       bool
	downErr    error
	closed     bool
	stop       chan struct{}
}

// newLink builds a link and starts its timer goroutine. Attach a conn with
// attach() (server side) or let it dial (client side, dial != nil).
func newLink(cfg linkConfig, met linkMetrics, onMsg func(byte, []byte), onDown func(error)) *link {
	l := &link{
		cfg:        cfg,
		met:        met,
		onMsg:      onMsg,
		onDown:     onDown,
		reorder:    make(map[uint64][]byte),
		lastRecv:   time.Now(),
		detachedAt: time.Now(),
		stop:       make(chan struct{}),
	}
	go l.timerLoop()
	return l
}

// attach splices a live conn into the link (initial connect or soft
// reconnect). The previous conn, if any, is closed; pending frames are
// retransmitted on the new conn so nothing sent during the outage is lost.
func (l *link) attach(conn net.Conn) {
	l.mu.Lock()
	if l.closed || l.down {
		l.mu.Unlock()
		conn.Close()
		return
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.connGen++
	gen := l.connGen
	l.detachedAt = time.Time{}
	l.lastRecv = time.Now()
	// Replay the entire pending queue: the peer dedups anything the dead
	// conn actually delivered, and in-flight order is preserved because the
	// queue is kept in ascending seq order.
	for i := range l.pending {
		l.pending[i].sentAt = time.Now()
		l.writeFrameLocked(conn, l.pending[i].frame)
	}
	l.mu.Unlock()
	go l.readLoop(conn, gen)
}

// reset hard-resets the sequence space (peer restarted with a new
// incarnation: its link state is gone, so ours must go too). Pending frames
// are dropped — the membership layer re-transfers state instead.
func (l *link) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq = 0
	l.nextExpect = 0
	l.pending = nil
	l.reorder = make(map[uint64][]byte)
}

// Send enqueues one sequenced application message; msg[0] is the message
// type, as the wire encoders produce. The frame is tracked for
// retransmission until cumulatively acked; if the link currently has no
// conn the frame waits in pending and goes out on re-attach. Returns
// ErrPeerDown once the link has degraded.
func (l *link) Send(msg []byte) error {
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return fmt.Errorf("send: %w", l.downErr)
	}
	if l.closed {
		l.mu.Unlock()
		return errors.New("send: link closed")
	}
	seq := l.nextSeq
	l.nextSeq++
	payload := make([]byte, 0, 8+len(msg))
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = append(payload, msg...)
	frame := wal.AppendFrame(nil, wkMsg, payload)
	l.pending = append(l.pending, linkPending{seq: seq, frame: frame, sentAt: time.Now()})
	conn := l.conn
	if conn != nil {
		l.writeFrameLocked(conn, frame)
	}
	l.mu.Unlock()
	return nil
}

// writeFrameLocked writes one pre-encoded frame with a bounded deadline.
// Called with l.mu held; a write failure detaches the conn (the reader will
// also notice, but detaching here stops further writes into a dead pipe).
func (l *link) writeFrameLocked(conn net.Conn, frame []byte) {
	conn.SetWriteDeadline(time.Now().Add(l.cfg.peerTimeout()))
	if _, err := conn.Write(frame); err != nil {
		l.detachLocked(conn)
	}
}

// sendControl writes one unsequenced control frame (ack/ping/pong/hello).
// Control frames are fire-and-forget: loss is repaired by retransmission
// (acks) or the next tick (pings).
func (l *link) sendControl(kind byte, payload []byte) {
	l.mu.Lock()
	if conn := l.conn; conn != nil && !l.down && !l.closed {
		l.writeFrameLocked(conn, wal.AppendFrame(nil, kind, payload))
	}
	l.mu.Unlock()
}

// detachLocked drops the current conn (if it is still the given one) and
// starts the detachment clock. Client links begin redialing from the timer
// loop; server links wait for the peer to re-attach.
func (l *link) detachLocked(conn net.Conn) {
	if l.conn != conn || l.conn == nil {
		return
	}
	l.conn.Close()
	l.conn = nil
	l.detachedAt = time.Now()
}

// readLoop decodes frames off one conn until it dies or is superseded.
func (l *link) readLoop(conn net.Conn, gen uint64) {
	for {
		conn.SetReadDeadline(time.Now().Add(l.cfg.peerTimeout()))
		kind, payload, err := wal.ReadFrame(conn)
		l.mu.Lock()
		stale := l.connGen != gen || l.closed || l.down
		if stale {
			l.mu.Unlock()
			return
		}
		if err != nil {
			l.detachLocked(conn)
			l.mu.Unlock()
			return
		}
		l.lastRecv = time.Now()
		l.mu.Unlock()
		switch kind {
		case wkMsg:
			l.handleData(payload)
		case wkAck:
			if len(payload) == 8 {
				l.handleAck(binary.LittleEndian.Uint64(payload))
			}
		case wkPing:
			l.sendControl(wkPong, nil)
		case wkPong:
			// lastRecv already updated; nothing else to do.
		default:
			// Unknown control frame: ignore for forward compatibility. A
			// corrupt frame cannot reach here — ReadFrame checksums it.
		}
	}
}

// handleData inserts one sequenced frame into the reorder buffer, flushes
// the in-order prefix to onMsg, and acks cumulatively. deliverMu spans the
// flush AND the callbacks so deliveries from consecutive conns cannot
// interleave out of order.
func (l *link) handleData(payload []byte) {
	if len(payload) < 9 {
		return // malformed; unrecoverable but harmless to skip
	}
	seq := binary.LittleEndian.Uint64(payload[:8])
	msg := payload[8:]
	l.deliverMu.Lock()
	l.mu.Lock()
	if seq < l.nextExpect {
		l.met.dups.Inc() // stale retransmit: already delivered, ack was lost
	} else if _, dup := l.reorder[seq]; dup {
		l.met.dups.Inc()
	} else {
		l.reorder[seq] = msg
	}
	var flush [][]byte
	for {
		m, ok := l.reorder[l.nextExpect]
		if !ok {
			break
		}
		delete(l.reorder, l.nextExpect)
		l.nextExpect++
		flush = append(flush, m)
	}
	ack := l.nextExpect
	l.mu.Unlock()
	for _, m := range flush {
		if len(m) >= 1 && l.onMsg != nil {
			l.onMsg(m[0], m[1:])
		}
	}
	l.deliverMu.Unlock()
	var ackBuf [8]byte
	binary.LittleEndian.PutUint64(ackBuf[:], ack)
	l.sendControl(wkAck, ackBuf[:])
}

// handleAck trims every pending frame below the cumulative ack.
func (l *link) handleAck(ackSeq uint64) {
	l.mu.Lock()
	keep := l.pending[:0]
	for _, p := range l.pending {
		if p.seq >= ackSeq {
			keep = append(keep, p)
		}
	}
	l.pending = keep
	l.mu.Unlock()
}

// timerLoop drives heartbeats, retransmission, redial, and down detection.
func (l *link) timerLoop() {
	t := time.NewTicker(l.cfg.tick())
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case now := <-t.C:
			if l.tickOnce(now) {
				return
			}
		}
	}
}

// tickOnce runs one timer pass; returns true when the link is finished.
func (l *link) tickOnce(now time.Time) bool {
	l.mu.Lock()
	if l.closed || l.down {
		l.mu.Unlock()
		return true
	}
	var downErr error
	conn := l.conn
	if conn != nil {
		// Heartbeat + inbound-silence watchdog.
		if now.Sub(l.lastPing) >= l.cfg.heartbeatEvery() {
			l.lastPing = now
			l.writeFrameLocked(conn, wal.AppendFrame(nil, wkPing, nil))
			conn = l.conn // write failure may have detached
		}
		if conn != nil && now.Sub(l.lastRecv) > l.cfg.peerTimeout() {
			l.detachLocked(conn)
			conn = nil
		}
	}
	if conn != nil {
		// Retransmit pass with exponential backoff; a frame that has used
		// up its capped retries degrades the link to ErrPeerDown.
		maxR := l.cfg.maxRetries()
		base := l.cfg.retransBase()
		for i := range l.pending {
			p := &l.pending[i]
			if p.retries >= maxR {
				downErr = fmt.Errorf("seq %d after %d retransmits: %w", p.seq, p.retries, ErrPeerDown)
				break
			}
			shift := p.retries
			if shift > 6 {
				shift = 6
			}
			if now.Sub(p.sentAt) >= base<<uint(shift) {
				p.sentAt = now
				p.retries++
				l.met.retransmits.Inc()
				l.writeFrameLocked(conn, p.frame)
				if l.conn == nil {
					break // write failed and detached; stop the pass
				}
			}
		}
	} else {
		// Detached. A client link redials; both sides give up for good once
		// the outage outlasts PeerTimeout.
		if now.Sub(l.detachedAt) > l.cfg.peerTimeout() {
			downErr = fmt.Errorf("no connection for %v: %w", now.Sub(l.detachedAt).Round(time.Millisecond), ErrPeerDown)
		} else if l.dial != nil && !l.redialing {
			l.redialing = true
			go l.redial()
		}
	}
	if downErr != nil {
		l.markDownLocked(downErr)
		l.mu.Unlock()
		return true
	}
	l.mu.Unlock()
	return false
}

// redial attempts one reconnect (client side). Runs off the timer goroutine;
// the redialing flag makes attempts sequential, and the timer keeps
// scheduling new attempts until re-attach succeeds or PeerTimeout elapses.
func (l *link) redial() {
	conn, err := l.dial()
	l.mu.Lock()
	l.redialing = false
	if l.closed || l.down || l.conn != nil {
		l.mu.Unlock()
		if err == nil {
			conn.Close()
		}
		return
	}
	l.mu.Unlock()
	if err != nil {
		return // timer loop schedules the next attempt
	}
	// Re-introduce ourselves, then splice the conn in. The hello carries the
	// same incarnation, so the far side re-attaches instead of resetting.
	if werr := wal.WriteFrame(conn, wkHello, l.hello); werr != nil {
		conn.Close()
		return
	}
	l.met.reconnects.Inc()
	l.attach(conn)
}

// markDownLocked finalizes degradation: one ErrPeerDown, no further sends.
func (l *link) markDownLocked(err error) {
	l.down = true
	l.downErr = err
	l.met.peerDown.Inc()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	if l.onDown != nil {
		cb := l.onDown
		l.onDown = nil
		go cb(err)
	}
}

// close shuts the link down without an onDown event (graceful path).
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
	close(l.stop)
}

// isDown reports whether the link has degraded.
func (l *link) isDown() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}
