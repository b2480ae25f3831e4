package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wal"
)

// ClientOptions configures a session's timeouts, retry policy, and
// exactly-once resume identity. The zero value plus a Role is a working
// anonymous client.
type ClientOptions struct {
	// Role is RoleIngest or RoleQuery (default RoleIngest).
	Role byte
	// ClientID is the stable identity for exactly-once resume. When set,
	// every ingest carries a client-assigned sequence number, the server
	// dedups resends against its persisted per-client window, and transport
	// errors trigger automatic redial + resend of the same batch under the
	// same sequence. Empty = anonymous (no resume, no idempotency).
	ClientID string
	// DialTimeout bounds connect + hello (default 5s).
	DialTimeout time.Duration
	// OpTimeout is the per-operation read/write deadline (default 30s;
	// negative disables). A miss surfaces as a *TimeoutError.
	OpTimeout time.Duration
	// KeepAlive is the TCP keepalive period (default 15s; negative
	// disables), so a silently dead peer is detected between operations.
	KeepAlive time.Duration
	// RetryBudget caps attempts per batch in IngestRetry and redials per
	// operation (default 64; negative means 0 — fail on first error).
	RetryBudget int
	// BackoffBase/BackoffMax shape the capped exponential retry backoff
	// (defaults 1ms / 250ms). Each sleep is the capped step half fixed,
	// half seeded jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter deterministically (chaos sweeps replay).
	Seed uint64
}

func (o ClientOptions) role() byte {
	if o.Role == 0 {
		return RoleIngest
	}
	return o.Role
}

func (o ClientOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o ClientOptions) opTimeout() time.Duration {
	switch {
	case o.OpTimeout < 0:
		return 0
	case o.OpTimeout == 0:
		return 30 * time.Second
	}
	return o.OpTimeout
}

func (o ClientOptions) keepAlive() time.Duration {
	if o.KeepAlive == 0 {
		return 15 * time.Second
	}
	return o.KeepAlive // negative disables (net.Dialer semantics)
}

func (o ClientOptions) retryBudget() int {
	switch {
	case o.RetryBudget < 0:
		return 0
	case o.RetryBudget == 0:
		return 64
	}
	return o.RetryBudget
}

func (o ClientOptions) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return time.Millisecond
	}
	return o.BackoffBase
}

func (o ClientOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return 250 * time.Millisecond
	}
	return o.BackoffMax
}

// TimeoutError is a deadline miss on one client operation. errors.Is matches
// both context.DeadlineExceeded and os.ErrDeadlineExceeded, so callers test
// it the way they test any Go deadline error.
type TimeoutError struct {
	Op  string
	Err error
}

func (e *TimeoutError) Error() string { return fmt.Sprintf("serve: %s timed out: %v", e.Op, e.Err) }

// Timeout satisfies net.Error's convention.
func (e *TimeoutError) Timeout() bool { return true }

func (e *TimeoutError) Unwrap() error { return e.Err }

func (e *TimeoutError) Is(target error) bool { return target == context.DeadlineExceeded }

// wrapNetErr turns a deadline miss into the typed TimeoutError and leaves
// every other transport error intact (prefixed with the op).
func wrapNetErr(op string, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return &TimeoutError{Op: op, Err: err}
	}
	return fmt.Errorf("serve: %s: %w", op, err)
}

// Client is one synchronous session with a graphfly serve server: every request
// waits for its reply, so replies pair with requests unambiguously.
// Concurrency comes from running many clients, which is exactly the serving
// model under test. Not safe for concurrent use by multiple goroutines.
//
// With a ClientID set, the client survives connection loss: transport
// errors redial, re-handshake, and resend the in-flight batch under its
// original client sequence; the server's dedup window turns a resend of an
// already-logged batch into an ack (Dup) instead of a second apply.
type Client struct {
	addr string
	opts ClientOptions
	conn net.Conn
	jit  *rng.Xoshiro256

	clientSeq uint64 // last assigned idempotency sequence

	// Welcome is the server's session banner (refreshed on each redial).
	Welcome struct {
		AlgName string
		NumV    uint32
		Seq     uint64
	}
	// Redials counts successful reconnects; DupAcks counts resends the
	// server acknowledged from its dedup window without re-applying.
	Redials int
	DupAcks int
}

// DialOpts connects, performs the hello handshake, and returns a ready
// client. With a ClientID set, transport faults during the handshake (the
// hello is idempotent) and retryable rejections back off and retry within
// the retry budget; anonymous sessions fail fast.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts, jit: rng.New(rng.Mix64(opts.Seed))}
	for attempt := 0; ; attempt++ {
		conn, w, err := connect(addr, opts)
		if err != nil {
			re, isReject := asRejectError(err)
			if isReject && !re.Retryable() {
				return nil, err // draining or bad request: retrying cannot help
			}
			if !c.resumable() || attempt >= opts.retryBudget() {
				return nil, err
			}
			c.sleepBackoff(attempt)
			continue
		}
		c.conn = conn
		c.Welcome.AlgName, c.Welcome.NumV, c.Welcome.Seq = w.AlgName, w.NumV, w.Seq
		return c, nil
	}
}

// asRejectError unwraps a typed server rejection from a dial/hello error.
func asRejectError(err error) (*RejectError, bool) {
	var re *RejectError
	return re, errors.As(err, &re)
}

// connect dials and completes the hello handshake once.
func connect(addr string, opts ClientOptions) (net.Conn, welcome, error) {
	d := net.Dialer{Timeout: opts.dialTimeout(), KeepAlive: opts.keepAlive()}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, welcome{}, fmt.Errorf("serve: dial: %w", err)
	}
	conn.SetDeadline(time.Now().Add(opts.dialTimeout()))
	if err := writeFrame(conn, skHello, encodeHello(opts.role(), opts.ClientID)); err != nil {
		conn.Close()
		return nil, welcome{}, fmt.Errorf("serve: hello: %w", err)
	}
	kind, payload, err := wal.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, welcome{}, fmt.Errorf("serve: hello reply: %w", err)
	}
	switch kind {
	case skWelcome:
		w, derr := decodeWelcome(payload)
		if derr != nil {
			conn.Close()
			return nil, welcome{}, derr
		}
		conn.SetDeadline(time.Time{})
		return conn, w, nil
	case skReject:
		re, derr := decodeReject(payload)
		conn.Close()
		if derr != nil {
			return nil, welcome{}, derr
		}
		return nil, welcome{}, re
	default:
		conn.Close()
		return nil, welcome{}, fmt.Errorf("serve: unexpected hello reply kind %#x", kind)
	}
}

// resumable reports whether transport errors should redial and resend.
func (c *Client) resumable() bool { return c.opts.ClientID != "" }

// dropConn abandons a connection after a transport error; the next
// operation redials (when resumable).
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// redial reconnects and re-handshakes under the same identity.
func (c *Client) redial() error {
	c.dropConn()
	conn, w, err := connect(c.addr, c.opts)
	if err != nil {
		return err
	}
	c.conn = conn
	c.Welcome.AlgName, c.Welcome.NumV, c.Welcome.Seq = w.AlgName, w.NumV, w.Seq
	c.Redials++
	return nil
}

// ensureConn makes the session usable again after a drop.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	if !c.resumable() {
		return errors.New("serve: connection lost (no client identity to resume with)")
	}
	return c.redial()
}

// sleepBackoff sleeps the capped exponential step for attempt: half fixed,
// half seeded jitter, so concurrent clients don't stampede in lockstep.
func (c *Client) sleepBackoff(attempt int) {
	d := c.opts.backoffBase()
	max := c.opts.backoffMax()
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := uint64(d / 2)
	time.Sleep(d/2 + time.Duration(c.jit.Uint64n(half+1)))
}

// Close ends the session gracefully.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	writeFrame(c.conn, skBye, encodeReject(0, "client closing"))
	return c.conn.Close()
}

// roundTrip sends one frame and returns the next reply frame, under the
// per-operation deadline.
func (c *Client) roundTrip(kind byte, payload []byte) (byte, []byte, error) {
	if t := c.opts.opTimeout(); t > 0 {
		c.conn.SetDeadline(time.Now().Add(t))
		defer func() {
			if c.conn != nil {
				c.conn.SetDeadline(time.Time{})
			}
		}()
	}
	if err := writeFrame(c.conn, kind, payload); err != nil {
		return 0, nil, wrapNetErr("send", err)
	}
	rk, rp, err := wal.ReadFrame(c.conn)
	if err != nil {
		return 0, nil, wrapNetErr("reply", err)
	}
	return rk, rp, nil
}

// asReject converts an skReject reply into its typed error.
func asReject(payload []byte) error {
	re, err := decodeReject(payload)
	if err != nil {
		return err
	}
	return re
}

// Ingest submits one batch and waits until it is durably logged, returning
// the assigned sequence. A *RejectError with Retryable()==true is
// backpressure: resubmit via IngestRetry (which keeps the same idempotency
// key — required after RejectDegraded, where the failed attempt may already
// be logged). Transport errors redial and resend the SAME batch under the
// SAME client sequence automatically when a ClientID is set.
func (c *Client) Ingest(b graph.Batch) (uint64, error) {
	var cseq uint64
	if c.opts.ClientID != "" {
		c.clientSeq++
		cseq = c.clientSeq
	}
	return c.ingestSeq(cseq, b)
}

// ingestSeq is one batch under one already-assigned idempotency key,
// surviving transport errors via redial + resend within the retry budget.
func (c *Client) ingestSeq(cseq uint64, b graph.Batch) (uint64, error) {
	payload := encodeIngest(cseq, b)
	for attempt := 0; ; attempt++ {
		if err := c.ensureConn(); err != nil {
			if !c.resumable() || attempt >= c.opts.retryBudget() {
				return 0, err
			}
			c.sleepBackoff(attempt)
			continue
		}
		kind, reply, err := c.roundTrip(skIngest, payload)
		if err != nil {
			// Transport fault: the server may or may not have logged the
			// batch. With an identity, resending the same cseq is safe —
			// the dedup window acks without re-applying.
			c.dropConn()
			if !c.resumable() || attempt >= c.opts.retryBudget() {
				return 0, err
			}
			c.sleepBackoff(attempt)
			continue
		}
		switch kind {
		case skIngestAck:
			d := wal.Dec{B: reply}
			seq := d.U64()
			if len(reply) > 8 && d.U8() != 0 {
				c.DupAcks++
			}
			return seq, d.Err("ingest-ack")
		case skReject:
			return 0, asReject(reply)
		default:
			return 0, fmt.Errorf("serve: unexpected ingest reply kind %#x", kind)
		}
	}
}

// IngestRetry submits b with the full retry policy: typed backpressure
// rejections back off (capped exponential + seeded jitter) and resubmit the
// same batch under the same idempotency key, within the retry budget.
// RejectDraining stops immediately — the server is going away, backing off
// cannot help. Transport errors resume via redial when a ClientID is set.
func (c *Client) IngestRetry(b graph.Batch) (uint64, error) {
	var cseq uint64
	if c.opts.ClientID != "" {
		c.clientSeq++
		cseq = c.clientSeq
	}
	var last error
	for attempt := 0; attempt <= c.opts.retryBudget(); attempt++ {
		seq, err := c.ingestSeq(cseq, b)
		if err == nil {
			return seq, nil
		}
		re, ok := err.(*RejectError)
		if !ok || !re.Retryable() {
			return 0, err // Draining, BadRequest, or a non-reject failure
		}
		last = err
		c.sleepBackoff(attempt)
	}
	return 0, fmt.Errorf("serve: retry budget exhausted: %w", last)
}

// Get reads one vertex's value and parent from the server's current
// snapshot, returning also the snapshot's sequence.
func (c *Client) Get(v graph.VertexID) (val float64, parent int32, seq uint64, err error) {
	if err := c.ensureConn(); err != nil {
		return 0, -1, 0, err
	}
	var e wal.Enc
	e.U32(uint32(v))
	kind, payload, err := c.roundTrip(skGet, e.B)
	if err != nil {
		c.dropConn()
		return 0, -1, 0, err
	}
	switch kind {
	case skValue:
		r, derr := decodeValue(payload)
		return r.Val, r.Parent, r.Seq, derr
	case skReject:
		return 0, -1, 0, asReject(payload)
	default:
		return 0, -1, 0, fmt.Errorf("serve: unexpected get reply kind %#x", kind)
	}
}

// TopK reads the k best vertices under the server's algorithm ordering.
func (c *Client) TopK(k int) ([]engine.VertexValue, uint64, error) {
	if err := c.ensureConn(); err != nil {
		return nil, 0, err
	}
	var e wal.Enc
	e.U32(uint32(k))
	kind, payload, err := c.roundTrip(skTopK, e.B)
	if err != nil {
		c.dropConn()
		return nil, 0, err
	}
	switch kind {
	case skTopKReply:
		m, derr := decodeVVList(payload, "topk-reply")
		return m.Recs, m.Seq, derr
	case skReject:
		return nil, 0, asReject(payload)
	default:
		return nil, 0, fmt.Errorf("serve: unexpected top-k reply kind %#x", kind)
	}
}

// Stat probes the server's sequences and session count.
func (c *Client) Stat() (Stat, error) {
	if err := c.ensureConn(); err != nil {
		return Stat{}, err
	}
	kind, payload, err := c.roundTrip(skStat, nil)
	if err != nil {
		c.dropConn()
		return Stat{}, err
	}
	switch kind {
	case skStatReply:
		return decodeStat(payload)
	case skReject:
		return Stat{}, asReject(payload)
	default:
		return Stat{}, fmt.Errorf("serve: unexpected stat reply kind %#x", kind)
	}
}

// Delta is one subscription push: the vertices whose values changed when
// batch Seq reconverged.
type Delta struct {
	Seq  uint64
	Recs []engine.VertexValue
}

// Subscribe switches the session into delta streaming. After it returns,
// call Next repeatedly; the session carries only skDelta frames from here
// until the server's bye.
func (c *Client) Subscribe() error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	return writeFrame(c.conn, skSubscribe, nil)
}

// Next blocks for the next delta (timeout <= 0 waits forever). It returns
// ok=false on a clean end of stream (server bye or subscription dropped).
func (c *Client) Next(timeout time.Duration) (Delta, bool, error) {
	if c.conn == nil {
		return Delta{}, false, errors.New("serve: connection lost")
	}
	if timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	for {
		kind, payload, err := wal.ReadFrame(c.conn)
		if err != nil {
			return Delta{}, false, wrapNetErr("next", err)
		}
		switch kind {
		case skDelta:
			m, derr := decodeVVList(payload, "delta")
			if derr != nil {
				return Delta{}, false, derr
			}
			return Delta{Seq: m.Seq, Recs: m.Recs}, true, nil
		case skBye:
			return Delta{}, false, nil
		case skReject:
			return Delta{}, false, asReject(payload)
		default:
			// Ignore stragglers from requests sent before Subscribe.
		}
	}
}
