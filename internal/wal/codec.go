// Package wal gives the single-node engines a durability story: a
// segmented, CRC32C-framed write-ahead log of edge batches with a
// configurable fsync policy, periodic snapshot checkpoints of the
// graph.Streaming state and engine refinement floors, log truncation behind
// snapshots, and a recovery path that restores the newest intact snapshot
// and replays the WAL tail through the engine to converge on the
// from-scratch oracle (DESIGN.md §4.9).
//
// The frame codec in this file is the shared serialization layer: the WAL
// segments, the snapshot files, and the distributed runtime's on-disk
// checkpoints (internal/dist) all speak it, so every durable artifact in the
// repository detects truncation and bit corruption the same way.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Frame layout, little-endian:
//
//	[4B payload length][4B CRC32C of kind+payload][1B kind][payload]
//
// The length counts the kind byte plus the payload, so a reader can skip a
// frame it does not understand while still checksumming it. A frame is torn
// when the file ends before the declared length, and corrupt when the CRC
// does not match; readers stop cleanly at the first of either.
const (
	frameHeaderLen = 8
	// MaxFrameLen bounds a single frame (1 GiB): a declared length beyond
	// it is treated as corruption, never as an allocation request.
	MaxFrameLen = 1 << 30
	// frameChunk is what ReadFrame allocates before it has received a body
	// byte; a frame up to it (a batch, a wire message) takes one allocation.
	frameChunk = 256 << 10
)

// Frame kinds. The codec itself is kind-agnostic; these constants name the
// record types the WAL, snapshots, and dist checkpoints write.
const (
	// KindBatch is one logged edge batch: [8B seq][batch payload].
	KindBatch byte = 1
	// KindSnapHeader opens a snapshot file: seq, vertex count, state dim.
	KindSnapHeader byte = 2
	// KindSnapEdges carries the snapshot graph's edge list.
	KindSnapEdges byte = 3
	// KindSnapState carries the engine values and key-edge parents.
	KindSnapState byte = 4
	// KindSnapFooter closes a snapshot file; its absence marks a snapshot
	// that was still being written when the process died.
	KindSnapFooter byte = 5
	// KindDistCheckpoint is the distributed runtime's checkpoint payload.
	KindDistCheckpoint byte = 6
	// KindSnapAccState carries the accumulative engine's residual state
	// (rank vector + aggregate + last-broadcast residuals) in place of
	// KindSnapState inside an accumulative snapshot file.
	KindSnapAccState byte = 7
	// KindBatchTagged is a logged edge batch carrying a client idempotency
	// key: [4B len][clientID][8B clientSeq][KindBatch payload]. The key and
	// the batch share one frame (one CRC), so a torn write can never persist
	// the batch without its dedup record or vice versa.
	KindBatchTagged byte = 8
	// KindSnapDedup, when present between KindSnapState (or KindSnapAccState)
	// and the footer, carries the per-client dedup window consistent with the
	// snapshot's sequence. Readers tolerate its absence: snapshots written
	// before exactly-once ingest (or with dedup disabled) simply lack it.
	KindSnapDedup byte = 9
)

// castagnoli is the CRC32C polynomial table (the same checksum families
// like RocksDB and etcd frame their logs with; SSE4.2 accelerates it).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors readers branch on. ErrTorn means the file ended inside a
// frame (a crashed append); ErrCorrupt means the frame is structurally
// complete but fails its checksum or sanity bounds (bit rot, overwrite).
var (
	ErrTorn    = errors.New("wal: torn frame (file ends mid-frame)")
	ErrCorrupt = errors.New("wal: corrupt frame (checksum or bounds violation)")
)

// Little-endian shorthands shared by the frame and payload codecs.
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// AppendFrame appends one encoded frame to buf and returns the extension.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	n := len(payload) + 1
	var hdr [frameHeaderLen + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, castagnoli, []byte{kind})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = kind
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, kind, payload))
	return err
}

// ReadFrame reads the next frame from r. It returns io.EOF at a clean end
// of input, ErrTorn when the input ends inside a frame, and ErrCorrupt when
// the frame fails its checksum or declares an impossible length. The
// returned payload aliases a fresh allocation and is safe to retain.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTorn // ErrUnexpectedEOF or a short read
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < 1 || n > MaxFrameLen {
		return 0, nil, ErrCorrupt
	}
	// The declared length is untrusted until the checksum holds: the buffer
	// at most doubles past the bytes actually received, so a flipped length
	// field over a short input costs frameChunk, not up to 1 GiB.
	var body []byte
	for len(body) < n {
		got := len(body)
		body = append(body, make([]byte, min(n-got, max(got, frameChunk)))...)
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return 0, nil, ErrTorn
		}
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, ErrCorrupt
	}
	return body[0], body[1:], nil
}

// --- payload codecs ---
//
// Payloads are flat little-endian records. Decoders validate every length
// and range before allocating or returning data: a decoder must never
// panic or hand back garbage on adversarial input (the truncation and
// bit-flip sweeps over snapshot and worker-checkpoint files hold them to it).

// EncodeBatch encodes a sequence-numbered edge batch.
func EncodeBatch(buf []byte, seq uint64, b graph.Batch) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	for _, u := range b {
		buf = binary.LittleEndian.AppendUint32(buf, u.Src)
		buf = binary.LittleEndian.AppendUint32(buf, u.Dst)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.W))
		if u.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeBatch decodes EncodeBatch's payload.
func DecodeBatch(p []byte) (seq uint64, b graph.Batch, err error) {
	const updLen = 4 + 4 + 8 + 1
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("%w: batch payload %d bytes", ErrCorrupt, len(p))
	}
	seq = binary.LittleEndian.Uint64(p[0:8])
	n := int(binary.LittleEndian.Uint32(p[8:12]))
	p = p[12:]
	if n < 0 || len(p) != n*updLen {
		return 0, nil, fmt.Errorf("%w: batch declares %d updates, %d bytes follow", ErrCorrupt, n, len(p))
	}
	b = make(graph.Batch, n)
	for i := range b {
		rec := p[i*updLen:]
		b[i] = graph.Update{
			Edge: graph.Edge{
				Src: binary.LittleEndian.Uint32(rec[0:4]),
				Dst: binary.LittleEndian.Uint32(rec[4:8]),
				W:   math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			},
			Del: rec[16] != 0,
		}
	}
	return seq, b, nil
}

// maxClientIDLen bounds a client identity inside tagged frames; a longer
// declared length is corruption, never an allocation request.
const maxClientIDLen = 256

// EncodeTaggedBatch encodes a sequence-numbered edge batch carrying a client
// idempotency key (clientID, clientSeq). The tag prefixes a standard
// EncodeBatch payload so the two decode paths share the batch tail.
func EncodeTaggedBatch(buf []byte, seq uint64, clientID string, clientSeq uint64, b graph.Batch) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(clientID)))
	buf = append(buf, clientID...)
	buf = binary.LittleEndian.AppendUint64(buf, clientSeq)
	return EncodeBatch(buf, seq, b)
}

// DecodeTaggedBatch decodes EncodeTaggedBatch's payload.
func DecodeTaggedBatch(p []byte) (seq uint64, b graph.Batch, clientID string, clientSeq uint64, err error) {
	if len(p) < 4 {
		return 0, nil, "", 0, fmt.Errorf("%w: tagged batch payload %d bytes", ErrCorrupt, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[0:4]))
	if n < 1 || n > maxClientIDLen || len(p) < 4+n+8 {
		return 0, nil, "", 0, fmt.Errorf("%w: tagged batch declares %d-byte client id", ErrCorrupt, n)
	}
	clientID = string(p[4 : 4+n])
	clientSeq = binary.LittleEndian.Uint64(p[4+n : 12+n])
	seq, b, err = DecodeBatch(p[12+n:])
	return seq, b, clientID, clientSeq, err
}

// EncodeDistCheckpoint encodes a distributed worker's checkpoint payload:
// the batch sequence the state is consistent with, followed by the state
// section. It is the one payload shape of KindDistCheckpoint frames, which
// appear only inside per-worker checkpoint files (internal/dist/wckpt.go).
// The seq is repeated inside the checksummed payload so a state frame
// spliced under another checkpoint's header is caught.
func EncodeDistCheckpoint(buf []byte, seq uint64, vals []float64, parent []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return EncodeState(buf, vals, parent)
}

// DecodeDistCheckpoint decodes EncodeDistCheckpoint's payload with the same
// validation discipline as DecodeState.
func DecodeDistCheckpoint(p []byte, numVals, numV int) (seq uint64, vals []float64, parent []int32, err error) {
	if len(p) < 8 {
		return 0, nil, nil, fmt.Errorf("%w: dist checkpoint payload %d bytes", ErrCorrupt, len(p))
	}
	seq = binary.LittleEndian.Uint64(p[0:8])
	vals, parent, err = DecodeState(p[8:], numVals, numV)
	return seq, vals, parent, err
}

// EncodeEdges encodes an edge list (a snapshot's graph section).
func EncodeEdges(buf []byte, edges []graph.Edge) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
	}
	return buf
}

// DecodeEdges decodes EncodeEdges's payload, rejecting edges whose
// endpoints fall outside [0, numV).
func DecodeEdges(p []byte, numV int) ([]graph.Edge, error) {
	const edgeLen = 4 + 4 + 8
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: edge payload %d bytes", ErrCorrupt, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	if n < 0 || len(p) != n*edgeLen {
		return nil, fmt.Errorf("%w: edge list declares %d edges, %d bytes follow", ErrCorrupt, n, len(p))
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		rec := p[i*edgeLen:]
		e := graph.Edge{
			Src: binary.LittleEndian.Uint32(rec[0:4]),
			Dst: binary.LittleEndian.Uint32(rec[4:8]),
			W:   math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
		}
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			return nil, fmt.Errorf("%w: edge %d->%d exceeds %d vertices", ErrCorrupt, e.Src, e.Dst, numV)
		}
		edges[i] = e
	}
	return edges, nil
}

// EncodeState encodes per-vertex values and key-edge parents (an engine
// snapshot's state section and, behind a seq prefix, the dist checkpoint
// payload). parent may be
// nil when only values are checkpointed.
func EncodeState(buf []byte, vals []float64, parent []int32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parent)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, pv := range parent {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(pv))
	}
	return buf
}

// DecodeState decodes EncodeState's payload. Parents must be -1 or a valid
// vertex under numV; values of a dim-vector state pass numV*dim.
func DecodeState(p []byte, numVals, numV int) (vals []float64, parent []int32, err error) {
	if len(p) < 8 {
		return nil, nil, fmt.Errorf("%w: state payload %d bytes", ErrCorrupt, len(p))
	}
	nv := int(binary.LittleEndian.Uint32(p[0:4]))
	np := int(binary.LittleEndian.Uint32(p[4:8]))
	p = p[8:]
	if nv != numVals || (np != 0 && np != numV) {
		return nil, nil, fmt.Errorf("%w: state declares %d values / %d parents, want %d / {0,%d}",
			ErrCorrupt, nv, np, numVals, numV)
	}
	if len(p) != nv*8+np*4 {
		return nil, nil, fmt.Errorf("%w: state payload %d bytes, want %d", ErrCorrupt, len(p), nv*8+np*4)
	}
	vals = make([]float64, nv)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	p = p[nv*8:]
	if np == 0 {
		return vals, nil, nil
	}
	parent = make([]int32, np)
	for i := range parent {
		pv := int32(binary.LittleEndian.Uint32(p[i*4:]))
		if pv < -1 || int(pv) >= numV {
			return nil, nil, fmt.Errorf("%w: parent[%d]=%d outside [-1,%d)", ErrCorrupt, i, pv, numV)
		}
		parent[i] = pv
	}
	return vals, parent, nil
}

// EncodeAccState appends the accumulative engine's residual state: a header
// of [4B dim][4B numV] followed by the state, aggregate, and last-broadcast
// vectors, each numV*dim little-endian float64 bits. buf may be nil.
func EncodeAccState(buf []byte, numV int, st *engine.AccState) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(numV))
	for _, vec := range [][]float64{st.State, st.Agg, st.LastUnit} {
		for _, v := range vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeAccState decodes EncodeAccState's payload, validating the declared
// dimension and vertex count against the snapshot header's.
func DecodeAccState(p []byte, numV int) (*engine.AccState, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: acc state payload %d bytes", ErrCorrupt, len(p))
	}
	dim := int(binary.LittleEndian.Uint32(p[0:4]))
	nv := int(binary.LittleEndian.Uint32(p[4:8]))
	p = p[8:]
	if dim < 1 || dim > 1<<12 {
		return nil, fmt.Errorf("%w: acc state declares dim %d", ErrCorrupt, dim)
	}
	if nv != numV {
		return nil, fmt.Errorf("%w: acc state declares %d vertices, want %d", ErrCorrupt, nv, numV)
	}
	n := nv * dim
	if len(p) != 3*n*8 {
		return nil, fmt.Errorf("%w: acc state payload %d bytes, want %d", ErrCorrupt, len(p), 3*n*8)
	}
	st := &engine.AccState{Dim: dim}
	for _, dst := range []*[]float64{&st.State, &st.Agg, &st.LastUnit} {
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
		p = p[n*8:]
		*dst = vec
	}
	return st, nil
}
