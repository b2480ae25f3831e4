package dist

// Link: one framed TCP connection per worker incarnation. Every message is
// one wkMsg frame, written synchronously under the link mutex with a
// PeerTimeout write deadline; one reader goroutine hands them to onMsg in
// arrival order. TCP gives FIFO, exactly-once delivery within the
// connection, which is all the runtime above needs:
//
// FIFO is a correctness requirement, not a convenience. A shadow record
// overwrites the receiver's copy unconditionally, so two refreshes of one
// vertex applied out of order leave the older value behind; and the
// coordinator declares quiescence when each worker's processed / uploaded
// counters equal its own forwarded / received counts, which proves nothing
// is in flight only if no record is lost or delivered twice.
//
// The connection is the membership. Both sides send a wkPing every
// HeartbeatEvery, and every read carries a PeerTimeout deadline, so a peer
// that stays connected but falls silent is caught as surely as one whose
// socket dies. Any read or write error, EOF or silence marks the link down
// and fires onDown(ErrPeerDown) exactly once; nothing is retransmitted. The
// coordinator then treats the worker as gone: it bumps the attempt epoch
// (which drops everything that was in flight) and re-runs the batch on the
// survivors, and the worker process, its link gone, exits and is restarted
// onto its WAL through the ordinary rejoin (DESIGN.md §4.10).

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// linkConfig tunes one link's timers. The zero value picks defaults suited
// to localhost chaos tests: a silent peer is detected in two seconds, slow
// enough that a loaded CI machine does not false-positive. A peer whose
// process dies is detected at once, by EOF.
type linkConfig struct {
	HeartbeatEvery time.Duration // ping cadence (default 100ms)
	PeerTimeout    time.Duration // read silence and write stall tolerated before down (default 2s)
}

func (c linkConfig) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return 100 * time.Millisecond
	}
	return c.HeartbeatEvery
}

func (c linkConfig) peerTimeout() time.Duration {
	if c.PeerTimeout <= 0 {
		return 2 * time.Second
	}
	return c.PeerTimeout
}

// link is one peer connection. Safe for concurrent use; onMsg is invoked
// from the reader goroutine, in arrival order, without any link lock held
// (so handlers may call Send).
type link struct {
	cfg      linkConfig
	conn     net.Conn
	peerDown *metrics.Counter // dist.peer_down

	// onMsg receives each application message in arrival order.
	onMsg func(msgType byte, body []byte)
	// onDown fires exactly once, on its own goroutine, when the link goes
	// down; never after close or shutdown.
	onDown func(err error)

	mu       sync.Mutex
	downErr  error // non-nil once the link is down
	closed   bool  // closed or shutting down: a read error is expected
	stop     chan struct{}
	stopOnce sync.Once
	readEnd  chan struct{} // closed when the reader goroutine returns
}

// newLink takes over conn and starts its reader and heartbeat goroutines.
func newLink(conn net.Conn, cfg linkConfig, peerDown *metrics.Counter, onMsg func(byte, []byte), onDown func(error)) *link {
	l := &link{
		cfg: cfg, conn: conn, peerDown: peerDown,
		onMsg: onMsg, onDown: onDown,
		stop:    make(chan struct{}),
		readEnd: make(chan struct{}),
	}
	go l.readLoop()
	go l.heartbeat()
	return l
}

// Send writes one application message; msg[0] is the message type, as the
// wire encoders produce. Returns an error wrapping ErrPeerDown once the link
// is down.
func (l *link) Send(msg []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked(wal.AppendFrame(nil, wkMsg, msg))
}

// writeLocked writes one frame with a bounded deadline; a failed write
// takes the link down.
func (l *link) writeLocked(frame []byte) error {
	if l.downErr != nil {
		return fmt.Errorf("send: %w", l.downErr)
	}
	if l.closed {
		return errors.New("send: link closed")
	}
	l.conn.SetWriteDeadline(time.Now().Add(l.cfg.peerTimeout()))
	if _, err := l.conn.Write(frame); err != nil {
		err = fmt.Errorf("write: %v: %w", err, ErrPeerDown)
		l.failLocked(err)
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// readLoop decodes frames until the connection ends.
func (l *link) readLoop() {
	defer close(l.readEnd)
	for {
		l.conn.SetReadDeadline(time.Now().Add(l.cfg.peerTimeout()))
		kind, payload, err := wal.ReadFrame(l.conn)
		if err != nil {
			l.mu.Lock()
			l.failLocked(fmt.Errorf("read: %v: %w", err, ErrPeerDown))
			l.mu.Unlock()
			return
		}
		// A wkPing has done its job by arriving. Unknown kinds are ignored;
		// a corrupt frame cannot reach here, ReadFrame checksums it.
		if kind == wkMsg && len(payload) >= 1 {
			l.onMsg(payload[0], payload[1:])
		}
	}
}

// heartbeat pings the peer every HeartbeatEvery until the link ends.
func (l *link) heartbeat() {
	t := time.NewTicker(l.cfg.heartbeatEvery())
	defer t.Stop()
	ping := wal.AppendFrame(nil, wkPing, nil)
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			l.writeLocked(ping)
			l.mu.Unlock()
		}
	}
}

// failLocked takes the link down: one ErrPeerDown, no further sends. After
// close or shutdown it only ends the connection.
func (l *link) failLocked(err error) {
	l.conn.Close()
	l.halt()
	if l.downErr != nil || l.closed {
		return
	}
	l.downErr = err
	l.peerDown.Inc()
	go l.onDown(err)
}

// halt stops the heartbeat.
func (l *link) halt() { l.stopOnce.Do(func() { close(l.stop) }) }

// close ends the link without an onDown event.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.halt()
	l.conn.Close()
}

// shutdown is the graceful end: send last, half-close the connection, and
// let the reader drain to the peer's EOF (bounded by PeerTimeout), so last
// is delivered rather than lost to a reset. No onDown fires.
func (l *link) shutdown(last []byte) {
	l.mu.Lock()
	if l.writeLocked(wal.AppendFrame(nil, wkMsg, last)) == nil {
		l.closed = true
		l.halt()
		if tc, ok := l.conn.(interface{ CloseWrite() error }); ok {
			tc.CloseWrite()
		}
	}
	l.mu.Unlock()
	select {
	case <-l.readEnd:
	case <-time.After(l.cfg.peerTimeout()):
	}
	l.close()
}

// isDown reports whether the link has gone down.
func (l *link) isDown() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.downErr != nil
}
