package engine

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// Rec is one record cluster members (internal/dist) exchange: a candidate
// for V, to the member that runs V's flow, or a Shadow, V's value and parent
// from that member to every replica. A member is a Selective engine that
// runs its assigned flows; the library engine is the one that runs all.
type Rec struct {
	V      uint32
	Parent int32
	Val    float64
	Shadow bool
}

// Reset installs a state-only welcome's boundary state, nothing trimmed.
func (e *Selective) Reset(vals []float64, parent []int32) {
	for v, x := range vals {
		e.vals.Set(uint32(v), x)
	}
	copy(e.parent, parent)
	e.trimmed = newFlags(len(vals))
	e.initPublisher(len(vals))
}

// Start runs an attempt of a batch the graph already holds to local
// quiescence and returns the records to ship. The flows come from the
// boundary parents, as the coordinator's do; assign maps flows to members.
func (e *Selective) Start(applied graph.Batch, self int32, assign []int32) ([]Rec, error) {
	e.kf.Sync(e.parent)
	e.repartition()
	if n := e.part.NumFlows(); n != len(assign) {
		return nil, fmt.Errorf("engine: %d local flows, the assignment has %d: replica divergence", n, len(assign))
	}
	e.self, e.assign = self, assign
	e.resetSeeds(len(assign))
	e.trim(applied)
	e.sent = e.Publish(0) // every replica's view once it has trimmed
	e.converge(context.Background(), applied, &BatchStats{})
	return e.ship(), nil
}

// Deliver merges a bundle and runs to local quiescence again: a candidate
// goes to its flow's inbox, a shadow overwrites and untrims the replica.
func (e *Selective) Deliver(recs []Rec) []Rec {
	sw := e.workers[0].(*selWorker)
	for _, r := range recs {
		if !r.Shadow {
			sw.post(selMsg{v: r.V, val: r.Val, parent: r.Parent})
			continue
		}
		e.vals.Set(r.V, r.Val)
		e.parent[r.V] = r.Parent
		e.trimmed.clear(r.V)
		e.mark(r.V)
	}
	sw.out.flush(&e.driver, e.inboxes)
	e.run(context.Background())
	return e.ship()
}

// ship returns the candidates in the inboxes of flows other members run,
// then a shadow for each owned vertex whose value or parent differs from
// the last shipped root, which holds trim's -1 parents: replicas hold a
// trimmed vertex trimmed until then.
func (e *Selective) ship() []Rec {
	var out []Rec
	sw := e.workers[0].(*selWorker)
	for f := range e.inboxes {
		if !e.owns(int32(f)) {
			sw.buf = e.inboxes[f].drain(sw.buf)
			for _, m := range sw.buf {
				out = append(out, Rec{V: m.v, Parent: m.parent, Val: m.val})
			}
		}
	}
	root := e.Publish(0)
	for ci, c := range root.chunks {
		if pc := e.sent.chunks[ci]; c != pc {
			lo, hi := root.span(ci)
			for i := range hi - lo {
				if v := uint32(lo + i); (c.vals[i] != pc.vals[i] || c.parent[i] != pc.parent[i]) && e.owns(e.part.Flow(v)) {
					out = append(out, Rec{V: v, Parent: c.parent[i], Val: c.vals[i], Shadow: true})
				}
			}
		}
	}
	e.sent = root
	return out
}
