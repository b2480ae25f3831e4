package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// Scheduler conformance suite: the contract sched.go documents —
// quiescence, exactly-once pending requeue, band then activation order at
// one worker, and no lost wakeups under hostile cross-unit activation
// interleavings. Run under -race these tests double as a data-race proof
// of the handoff protocol.

// schedName is the subtest level under which the scheduler-facing tests
// run, naming the scheduler they check: the work-stealing pool.
const schedName = "worksteal"

// runConform runs fn as the schedName subtest.
func runConform(t *testing.T, fn func(t *testing.T)) {
	t.Run(schedName, fn)
}

// withDeadline fails the test if fn does not return in time — the shape
// every quiescence assertion takes (a lost wakeup shows up as a hang).
func withDeadline(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal(what)
	}
}

func TestSchedConformEmptyRunQuiesces(t *testing.T) {
	runConform(t, func(t *testing.T) {
		p := newWSPool(4, nil)
		withDeadline(t, 10*time.Second, "run with no activations did not return", func() {
			p.run(4, func(int, *unit) { t.Error("nothing should run") })
		})
	})
}

func TestSchedConformRunsEveryActivatedUnit(t *testing.T) {
	runConform(t, func(t *testing.T) {
		p := newWSPool(4, nil)
		var processed atomic.Int64
		units := make([]*unit, 100)
		for i := range units {
			units[i] = &unit{id: int32(i), band: uint8(i % wsBands)}
			p.activate(units[i])
		}
		p.run(4, func(w int, u *unit) { processed.Add(1) })
		if processed.Load() != 100 {
			t.Fatalf("processed %d units, want 100", processed.Load())
		}
		for _, u := range units {
			if u.state.Load() != unitIdle {
				t.Fatalf("unit %d not idle after run", u.id)
			}
		}
		if ss := p.stats(); ss.Dispatches != 100 {
			t.Fatalf("scheduler reported %d dispatches, want 100", ss.Dispatches)
		}
	})
}

func TestSchedConformDoubleActivationRunsOnce(t *testing.T) {
	runConform(t, func(t *testing.T) {
		p := newWSPool(2, nil)
		u := &unit{id: 0}
		p.activate(u)
		p.activate(u) // queued: second activation is a no-op
		var runs atomic.Int64
		p.run(2, func(int, *unit) { runs.Add(1) })
		if runs.Load() != 1 {
			t.Fatalf("queued unit ran %d times", runs.Load())
		}
	})
}

// TestSchedConformPendingRequeueExactlyOnce: every activate() landing while
// the unit runs (CAS unitRunning -> unitPending) must buy exactly ONE
// re-execution no matter how many messages arrive mid-run (pending
// coalesces), and an activation after quiescence runs it afresh.
func TestSchedConformPendingRequeueExactlyOnce(t *testing.T) {
	runConform(t, func(t *testing.T) {
		p := newWSPool(2, nil)
		u := &unit{id: 0}
		var runs atomic.Int64
		inRun := make(chan struct{})
		release := make(chan struct{})
		p.activate(u)
		go func() {
			<-inRun
			// Three activations while the unit is mid-run: the first flips
			// unitRunning -> unitPending, the rest observe unitPending and
			// are no-ops. Together they must buy exactly one re-execution.
			p.activate(u)
			p.activate(u)
			p.activate(u)
			close(release)
		}()
		withDeadline(t, 20*time.Second, "pending requeue hung", func() {
			p.run(2, func(w int, x *unit) {
				if runs.Add(1) == 1 {
					inRun <- struct{}{}
					<-release
				}
			})
		})
		if got := runs.Load(); got != 2 {
			t.Fatalf("unit ran %d times, want 2 (coalesced pending re-run)", got)
		}
		if u.state.Load() != unitIdle {
			t.Fatalf("unit state = %d after quiescence, want idle", u.state.Load())
		}

		// After quiescence the unit is idle: a new activation runs it again.
		p2 := newWSPool(1, nil)
		p2.activate(u)
		var again atomic.Int64
		p2.run(1, func(int, *unit) { again.Add(1) })
		if again.Load() != 1 {
			t.Fatalf("idle unit re-activation ran %d times, want 1", again.Load())
		}
	})
}

func TestSchedConformCascadingActivation(t *testing.T) {
	runConform(t, func(t *testing.T) {
		p := newWSPool(3, nil)
		const n = 50
		units := make([]*unit, n)
		for i := range units {
			units[i] = &unit{id: int32(i), band: uint8(i % wsBands)}
		}
		var order []int32
		var mu sync.Mutex
		p.activate(units[0])
		p.run(3, func(w int, u *unit) {
			mu.Lock()
			order = append(order, u.id)
			mu.Unlock()
			if int(u.id)+1 < n {
				p.activate(units[u.id+1])
			}
		})
		if len(order) != n {
			t.Fatalf("cascade processed %d units, want %d", len(order), n)
		}
	})
}

// TestSchedConformLevelPreference: with one worker (one shard, nothing to
// steal) units queued before the run must come out band 0 first and,
// within a band, in activation order — the sequential execution one worker
// is the reference for.
func TestSchedConformLevelPreference(t *testing.T) {
	runConform(t, func(t *testing.T) {
		for _, bands := range [][]uint8{
			{1, 1, 0, 1, 0, 0, 1, 0},
			{1, 1, 1, 1, 1, 1}, // one band: activation order alone
		} {
			p := newWSPool(1, nil)
			want := make([]*unit, len(bands))
			for i, b := range bands {
				want[i] = &unit{id: int32(i), band: b}
				p.activate(want[i])
			}
			slices.SortStableFunc(want, func(a, b *unit) int { return int(a.band) - int(b.band) })
			var got []*unit
			p.run(1, func(w int, u *unit) { got = append(got, u) })
			if !slices.Equal(got, want) {
				t.Fatalf("bands %v: ran %v, want %v", bands, unitOrder(got), unitOrder(want))
			}
		}
	})
}

// unitOrder renders a run order as id@band pairs for failure messages.
func unitOrder(us []*unit) []string {
	out := make([]string, len(us))
	for i, u := range us {
		out[i] = fmt.Sprintf("%d@%d", u.id, u.band)
	}
	return out
}

// TestSchedConformActivationStorm is the adversarial core of the suite:
// randomized cross-unit activation storms from concurrent external senders
// racing the workers' own reactivation fan-out. Every token deposited
// before its matching activate must be consumed by the time run returns —
// a lost wakeup either strands tokens (caught by the accounting) or hangs
// the pool (caught by the deadline).
func TestSchedConformActivationStorm(t *testing.T) {
	seeds := []uint64{1, 0xBAD5EED, 0xFEEDFACE}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			runConform(t, func(t *testing.T) {
				r := rng.New(seed)
				numUnits := 16 + r.Intn(64)
				workers := 1 + r.Intn(8)
				senders := 1 + r.Intn(4)
				perSender := 2000 + r.Intn(4000)
				fanout := 1 + r.Intn(3)
				budget := int64(100_000)

				units := make([]*unit, numUnits)
				for i := range units {
					units[i] = &unit{id: int32(i), band: uint8(r.Intn(wsBands))}
				}
				tokens := make([]atomic.Int64, numUnits)
				var injected, consumed atomic.Int64
				p := newWSPool(workers, nil)

				// Workers re-inject follow-up tokens, hash-directed: the
				// cross-flow message pattern (token first, activate second).
				fn := func(_ int, u *unit) {
					n := tokens[u.id].Swap(0)
					if n == 0 {
						return // benign: a racing drain beat this activation
					}
					consumed.Add(n)
					h := rng.Mix64(uint64(u.id)*0x9E3779B9 + uint64(n))
					for k := 0; k < fanout; k++ {
						h = rng.Mix64(h)
						if injected.Add(1) > budget {
							injected.Add(-1)
							continue
						}
						tgt := int(h % uint64(numUnits))
						tokens[tgt].Add(1)
						p.activate(units[tgt])
					}
				}

				// External senders race the running workers: they are exactly
				// the "concurrent sender" in the lost-wakeup window (deposit,
				// then activate a unit that may be idle, queued, running, or
				// mid-close-out).
				var wg sync.WaitGroup
				sendersDone := make(chan struct{})
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						sr := rng.New(seed ^ uint64(s+1)*0x9E3779B97F4A7C15)
						for i := 0; i < perSender; i++ {
							if injected.Add(1) > budget {
								injected.Add(-1)
								continue
							}
							tgt := sr.Intn(numUnits)
							tokens[tgt].Add(1)
							p.activate(units[tgt])
						}
					}(s)
				}
				go func() { wg.Wait(); close(sendersDone) }()

				// Quiescence can genuinely occur mid-storm (senders are
				// external), so re-run until every injected token is
				// accounted for. A deposit whose activation landed after run
				// returned legitimately waits for the next run; a token
				// stranded on an IDLE unit is the lost-wakeup bug, which
				// shows up here as a never-converging loop (the deadline) —
				// or as a consumed/injected mismatch below.
				withDeadline(t, 60*time.Second, "storm did not quiesce (lost wakeup)", func() {
					for {
						p.run(workers, fn)
						select {
						case <-sendersDone:
							if consumed.Load() == injected.Load() {
								return
							}
						default:
						}
					}
				})

				// One final run to drain benign activations that landed after
				// the previous run returned (their tokens were consumed
				// mid-run, but the activate left the unit queued).
				p.run(workers, fn)

				if got, want := consumed.Load(), injected.Load(); got != want {
					t.Fatalf("seed=%#x: lost work: consumed %d of %d injected tokens", seed, got, want)
				}
				for i := range tokens {
					if n := tokens[i].Load(); n != 0 {
						t.Fatalf("seed=%#x: unit %d quiesced with %d unread tokens", seed, i, n)
					}
					if s := units[i].state.Load(); s != unitIdle {
						t.Fatalf("seed=%#x: unit %d quiesced in state %d", seed, i, s)
					}
				}
			})
		})
	}
}

// TestSchedConformMidRunSenderNeverLost ports the historical lost-wakeup
// reproducer: producers deposit into a mailbox and activate the consuming
// unit, racing the worker that is just finishing fn. Mishandling the
// pending CAS or close-out CAS either strands a message (consumed != sent)
// or hangs the pool.
func TestSchedConformMidRunSenderNeverLost(t *testing.T) {
	runConform(t, func(t *testing.T) {
		const producers = 4
		const perProducer = 2000

		p := newWSPool(3, nil)
		var mail inbox[int]
		u := &unit{id: 0}
		var consumed atomic.Int64

		var wg sync.WaitGroup
		for pr := 0; pr < producers; pr++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					mail.putAll([]int{1})
					p.activate(u) // deposit-then-activate, racing the drain
				}
			}()
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			// Quiescence can genuinely occur mid-stream (producers are
			// external), so run again whenever mail arrived after the
			// previous run returned; a lost wakeup spins here forever.
			for {
				p.activate(u)
				p.run(3, func(w int, x *unit) {
					var buf []int
					buf = mail.drain(buf)
					consumed.Add(int64(len(buf)))
				})
				if consumed.Load() == producers*perProducer {
					return
				}
			}
		}()

		wg.Wait()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("pool hung: consumed %d of %d messages (lost wakeup)",
				consumed.Load(), producers*perProducer)
		}
		if got := consumed.Load(); got != int64(producers*perProducer) {
			t.Fatalf("consumed %d messages, want %d", got, producers*perProducer)
		}
	})
}
