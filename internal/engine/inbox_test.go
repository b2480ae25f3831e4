package engine

import (
	"sync"
	"testing"
)

func TestInboxPutDrain(t *testing.T) {
	var b inbox[int]
	if !b.empty() {
		t.Fatal("fresh inbox not empty")
	}
	b.putAll([]int{1})
	b.putAll([]int{2})
	if b.empty() {
		t.Fatal("inbox with messages reported empty")
	}
	got := b.drain(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drain = %v, want put order [1 2]", got)
	}
	if !b.empty() {
		t.Fatal("drain did not clear the inbox")
	}
	// Buffer reuse.
	b.putAll([]int{3})
	got = b.drain(got)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("second drain = %v", got)
	}
	// A batched put lands whole and in order; an empty one is a no-op.
	b.putAll([]int{4, 5, 6})
	b.putAll(nil)
	got = b.drain(got)
	if len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("putAll drain = %v", got)
	}
	if got = b.drain(got); len(got) != 0 {
		t.Fatalf("drain of an empty inbox = %v", got)
	}
}

func TestInboxConcurrentPut(t *testing.T) {
	var b inbox[int]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.putAll([]int{i, i})
			}
		}()
	}
	wg.Wait()
	if got := b.drain(nil); len(got) != 1600 {
		t.Fatalf("drained %d messages, want 1600", len(got))
	}
}

// TestInboxConcurrentPutDrain races producers against a single drainer
// (the unit-runner discipline) and checks no message is lost or
// duplicated, and that each putAll lands whole and in order. Run under
// -race this also proves the buffer swap is sound.
func TestInboxConcurrentPutDrain(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	var b inbox[int]
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i += 2 {
				m := p*perProducer + i
				b.putAll([]int{m, m + 1})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := make(map[int]bool, producers*perProducer)
	var buf []int
	collect := func() {
		buf = b.drain(buf)
		for i, m := range buf {
			if seen[m] {
				t.Errorf("message %d drained twice", m)
			}
			seen[m] = true
			if m%2 == 0 && (i+1 == len(buf) || buf[i+1] != m+1) {
				t.Errorf("the batch put with message %d was split", m)
			}
		}
	}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		collect()
	}
	collect() // final sweep after all producers finished
	if len(seen) != producers*perProducer {
		t.Fatalf("drained %d distinct messages, want %d", len(seen), producers*perProducer)
	}
}

// TestInboxCapacityDecay is the regression test for unbounded buffer
// retention: a burst of messages must not permanently pin its
// high-water-mark backing array. After the burst drains, the retained
// capacity has to fall back under the trim cap (both buffers), for
// drain-driven decay and for the between-batches reset alike.
func TestInboxCapacityDecay(t *testing.T) {
	const burst = 64 * inboxTrimCap
	const bound = 2 * inboxTrimCap // msgs + spare

	var b inbox[int]
	for i := 0; i < burst; i++ {
		b.putAll([]int{i})
	}
	if got := b.drain(nil); len(got) != burst {
		t.Fatalf("burst drain returned %d messages, want %d", len(got), burst)
	}
	// One steady-state cycle so any oversized spare rotates through drain.
	b.putAll([]int{1})
	b.drain(nil)
	if c := b.capSum(); c > bound {
		t.Fatalf("after burst drain, inbox retains capacity %d, want <= %d", c, bound)
	}

	var r inbox[int]
	for i := 0; i < burst; i++ {
		r.putAll([]int{i})
	}
	r.reset()
	if c := r.capSum(); c > bound {
		t.Fatalf("after reset, inbox retains capacity %d, want <= %d", c, bound)
	}
	if !r.empty() {
		t.Fatal("reset left messages behind")
	}
}

// TestOutboxCapacityDecay: release applies the inbox's decay rule to the
// outbox's per-flow buffers. A buffer at or under inboxTrimCap keeps its
// capacity for the next step (no re-allocation per step); one a burst grew
// past the cap is dropped, so it does not outlive the step.
func TestOutboxCapacityDecay(t *testing.T) {
	var o outbox[int]
	b := o.to(0)
	*b = append(*b, make([]int, inboxTrimCap/2)...)
	b = o.to(2)
	*b = append(*b, make([]int, 4*inboxTrimCap)...)
	for f := range o.bufs {
		o.bufs[f] = o.bufs[f][:0] // as flush leaves them
	}
	keep := cap(o.bufs[0])
	o.release()
	if b := o.bufs[0]; len(b) != 0 || cap(b) != keep {
		t.Fatalf("small buffer after release: len %d cap %d, want 0 and %d", len(b), cap(b), keep)
	}
	if c := cap(o.bufs[2]); c != 0 {
		t.Fatalf("burst buffer after release retains capacity %d, want 0", c)
	}
}
