package serve

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/wal"
)

// backend is the durable engine a Server fronts. The serving loop is
// engine-agnostic: it admits batches, appends them through the Durable's
// group-commit path, applies them in logged order, and publishes an
// immutable engine.State per batch boundary. The durability seams (Group,
// AppendTagged, AddWriter, LastSeq, ApplyLogged, Seq, Dirty, Snapshot,
// Close, ReopenLog, Abandon) and CheckBatch are the embedded Durable's own
// methods — the Durable is the log's one owner; the backend adds the
// read surface of the engine inside it, so the same server code serves
// selective (SSSP/BFS/...) and local (triangle counting, k-core) workloads.
type backend struct {
	*wal.Durable
	// alg names the algorithm in the session welcome banner; its Better
	// orders top-k replies.
	alg interface {
		Name() string
		Better(a, b float64) bool
	}
	// publish returns the engine's chunked state root under seq. Called
	// only at a batch boundary (the single applier guarantees this).
	publish func(seq uint64) *engine.State
}

// newBackend adapts any durable engine that publishes an engine.State.
// The selective engines publish values plus key-edge parents; the local
// engines values only, so their Get replies carry parent -1.
func newBackend(d *wal.Durable) (*backend, error) {
	switch e := d.Eng.(type) {
	case *engine.Selective:
		return &backend{Durable: d, alg: e.Alg, publish: e.Publish}, nil
	case *engine.Local:
		return &backend{Durable: d, alg: e.Alg, publish: e.Publish}, nil
	}
	return nil, fmt.Errorf("serve: %T publishes no state snapshots", d.Eng)
}
