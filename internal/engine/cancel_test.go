package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
)

// gatedSSSP blocks every Propagate on a gate once armed, standing in for a
// wedged batch: the computation cannot finish until the gate opens, so
// cancellation is the only way ProcessBatchCtx returns promptly.
type gatedSSSP struct {
	algo.SSSP
	armed *atomic.Bool
	gate  chan struct{}
}

func (s gatedSSSP) Propagate(u float64, w graph.Weight) float64 {
	if s.armed.Load() {
		<-s.gate
	}
	return s.SSSP.Propagate(u, w)
}

// TestProcessBatchCtxCancel wedges a batch, cancels it, and requires (a) a
// prompt context error, (b) the engine to refuse further batches with
// ErrCanceled. Run under -race this also exercises the
// interrupt path's synchronization.
func TestProcessBatchCtxCancel(t *testing.T) {
	runConform(t, func(t *testing.T) {
		w := randomWorkload(77)
		alg := gatedSSSP{SSSP: algo.SSSP{Src: 0}, armed: &atomic.Bool{}, gate: make(chan struct{})}
		g := graph.FromEdges(w.NumV, w.Initial)
		e := NewSelective(g, alg, Config{Workers: 3})

		alg2 := e.Alg.(gatedSSSP)
		alg2.armed.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel() // interrupt the scheduler...
			time.Sleep(5 * time.Millisecond)
			close(alg2.gate) // ...then unwedge the in-flight units so they can drain
		}()
		_, err := e.ProcessBatchCtx(ctx, w.Batches[0])
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		// The engine is mid-refinement: it must refuse to continue.
		if _, err := e.ProcessBatchCtx(context.Background(), w.Batches[0]); !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled after abort, got %v", err)
		}
		if _, err := e.ProcessBatchE(w.Batches[0]); !errors.Is(err, ErrCanceled) {
			t.Fatalf("ProcessBatchE after abort: want ErrCanceled, got %v", err)
		}
	})
}

// TestSchedulerInterruptUnblocksRun drives the scheduler with units that
// perpetually re-activate each other — a livelock that, without interrupt,
// never quiesces — and requires interrupt to drain run() promptly.
func TestSchedulerInterruptUnblocksRun(t *testing.T) {
	runConform(t, func(t *testing.T) {
		pl := Config{Workers: 4}.newScheduler()
		units := make([]*unit, 8)
		for i := range units {
			units[i] = &unit{id: int32(i)}
		}
		for _, u := range units {
			pl.activate(u)
		}
		done := make(chan struct{})
		go func() {
			pl.run(4, func(w int, u *unit) {
				pl.activate(units[(int(u.id)+1)%len(units)])
				pl.activate(u) // mark self pending too: outstanding never drops
			})
			close(done)
		}()
		time.Sleep(5 * time.Millisecond)
		pl.interrupt()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("run did not drain after interrupt")
		}
		if pl.stats().Dispatches == 0 {
			t.Fatal("livelock never dispatched — test is vacuous")
		}
	})
}
