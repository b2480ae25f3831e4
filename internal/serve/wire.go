// Package serve is the concurrent serving front-end over a durable engine
// (DESIGN.md §4.11): many ingest sessions append through the WAL
// group-commit layer, a single applier advances the engine in logged
// order, and readers answer from immutable batch-boundary snapshots. The
// loop is engine-agnostic (backend.go) — selective (SSSP/BFS/SSWP/CC) and
// local (triangle counting, k-core) engines serve through the same code
// path.
package serve

import (
	"fmt"
	"net"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Session frame kinds. Same wal codec framing as the cluster wire protocol
// (dist/wire.go) but a disjoint kind range, so a cluster peer talking to a
// serving port — or vice versa — fails loudly on the first frame.
const (
	skHello     byte = 0x20 // client -> server: [1B role] + optional client identity
	skWelcome   byte = 0x21 // server -> client: alg name, numV, applied seq
	skReject    byte = 0x22 // server -> client: [1B code][reason]; admission or per-batch refusal
	skIngest    byte = 0x23 // client -> server: [8B clientSeq] + one update batch
	skIngestAck byte = 0x24 // server -> client: [8B seq][1B dup] batch durable + ordered
	skGet       byte = 0x25 // client -> server: [4B vertex]
	skValue     byte = 0x26 // server -> client: snapshot seq, vertex, value, parent
	skTopK      byte = 0x27 // client -> server: [4B k]
	skTopKReply byte = 0x28 // server -> client: snapshot seq + (vertex, value) list
	skSubscribe byte = 0x29 // client -> server: push deltas from now on
	skDelta     byte = 0x2a // server -> client: snapshot seq + changed (vertex, value) list
	skStat      byte = 0x2b // client -> server: server status probe
	skStatReply byte = 0x2c // server -> client: applied/logged seq, session count
	skBye       byte = 0x2d // either way: graceful close, with reason
)

// Session roles carried in skHello.
const (
	RoleIngest byte = 1
	RoleQuery  byte = 2
)

// Typed rejection codes carried in skReject. Overloaded and SessionBusy are
// per-batch backpressure (the session survives and may retry); Draining and
// BadRequest end the conversation.
const (
	RejectOverloaded  byte = 1 // admission queue full: server-wide backpressure
	RejectSessionBusy byte = 2 // this session's inflight window is full
	RejectDraining    byte = 3 // server is shutting down; no new batches
	RejectBadRequest  byte = 4 // malformed batch or message
	// RejectDegraded means the WAL cannot accept appends (disk full, I/O
	// errors): the server is read-only until its prober reopens the log.
	// Retryable — back off and resubmit the SAME batch under the SAME
	// clientSeq: the failed attempt may have been logged before the fault,
	// and only the idempotency key keeps the resend exactly-once.
	RejectDegraded byte = 5
)

// RejectError is the typed overload/refusal a client sees for one batch.
type RejectError struct {
	Code   byte
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("serve: rejected (code %d): %s", e.Code, e.Reason)
}

// Retryable reports whether the same batch may be resubmitted on this
// session once the server catches up.
func (e *RejectError) Retryable() bool {
	return e.Code == RejectOverloaded || e.Code == RejectSessionBusy || e.Code == RejectDegraded
}

// welcome is the server's hello reply.
type welcome struct {
	AlgName string
	NumV    uint32
	Seq     uint64 // applied sequence at session start
}

func encodeWelcome(w welcome) []byte {
	var e wal.Enc
	e.Str(w.AlgName)
	e.U32(w.NumV)
	e.U64(w.Seq)
	return e.B
}

func decodeWelcome(p []byte) (welcome, error) {
	d := wal.Dec{B: p}
	w := welcome{AlgName: d.Str(), NumV: d.U32(), Seq: d.U64()}
	return w, d.Err("welcome")
}

func encodeReject(code byte, reason string) []byte {
	var e wal.Enc
	e.U8(code)
	e.Str(reason)
	return e.B
}

func decodeReject(p []byte) (*RejectError, error) {
	d := wal.Dec{B: p}
	re := &RejectError{Code: d.U8(), Reason: d.Str()}
	if err := d.Err("reject"); err != nil {
		return nil, err
	}
	return re, nil
}

// encodeIngest frames one batch (the wal batch section) with its
// idempotency key. clientSeq 0 means untagged (a legacy or anonymous
// client): the server appends it without exactly-once accounting.
func encodeIngest(clientSeq uint64, b graph.Batch) []byte {
	var e wal.Enc
	e.U64(clientSeq)
	e.Batch(b)
	return e.B
}

func decodeIngest(p []byte) (uint64, graph.Batch, error) {
	d := wal.Dec{B: p}
	clientSeq := d.U64()
	b := d.Batch()
	return clientSeq, b, d.Err("ingest")
}

// encodeHello frames the session hello: the role byte, plus the client's
// stable identity when it wants exactly-once resume. A bare [1B role] is the
// legacy anonymous form and stays accepted.
func encodeHello(role byte, clientID string) []byte {
	var e wal.Enc
	e.U8(role)
	if clientID != "" {
		e.Str(clientID)
	}
	return e.B
}

func decodeHello(p []byte) (role byte, clientID string, err error) {
	if len(p) == 1 {
		return p[0], "", nil
	}
	d := wal.Dec{B: p}
	role = d.U8()
	clientID = d.Str()
	return role, clientID, d.Err("hello")
}

// value is one per-vertex read reply.
type value struct {
	Seq    uint64 // snapshot sequence the answer is consistent at
	V      uint32
	Val    float64
	Parent int32
}

func encodeValue(v value) []byte {
	var e wal.Enc
	e.U64(v.Seq)
	e.U32(v.V)
	e.F64(v.Val)
	e.I32(v.Parent)
	return e.B
}

func decodeValue(p []byte) (value, error) {
	d := wal.Dec{B: p}
	v := value{Seq: d.U64(), V: d.U32(), Val: d.F64(), Parent: d.I32()}
	return v, d.Err("value")
}

const vvLen = 4 + 8

// vvList is a snapshot-stamped (vertex, value) list: a top-k reply or one
// subscription delta.
type vvList struct {
	Seq  uint64
	Recs []engine.VertexValue
}

func encodeVVList(m vvList) []byte {
	var e wal.Enc
	e.U64(m.Seq)
	e.U32(uint32(len(m.Recs)))
	for _, r := range m.Recs {
		e.U32(uint32(r.V))
		e.F64(r.Val)
	}
	return e.B
}

func decodeVVList(p []byte, what string) (vvList, error) {
	d := wal.Dec{B: p}
	var m vvList
	m.Seq = d.U64()
	n := d.Count(vvLen)
	m.Recs = make([]engine.VertexValue, n)
	for i := range m.Recs {
		m.Recs[i].V = graph.VertexID(d.U32())
		m.Recs[i].Val = d.F64()
	}
	return m, d.Err(what)
}

// Stat is the server status a client can probe.
type Stat struct {
	AppliedSeq uint64 // last batch folded into the published snapshot
	LoggedSeq  uint64 // last batch durably appended
	Sessions   uint32 // live sessions (all roles)
}

func encodeStat(s Stat) []byte {
	var e wal.Enc
	e.U64(s.AppliedSeq)
	e.U64(s.LoggedSeq)
	e.U32(s.Sessions)
	return e.B
}

func decodeStat(p []byte) (Stat, error) {
	d := wal.Dec{B: p}
	s := Stat{AppliedSeq: d.U64(), LoggedSeq: d.U64(), Sessions: d.U32()}
	return s, d.Err("stat")
}

// writeFrame writes one session frame; the wal framing CRCs it end to end.
func writeFrame(conn net.Conn, kind byte, payload []byte) error {
	return wal.WriteFrame(conn, kind, payload)
}
