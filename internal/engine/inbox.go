package engine

import (
	"sync"
	"sync/atomic"
)

// inbox is a per-flow mailbox. Senders scatter across shards (round-robin,
// one atomic add to pick) so concurrent cross-flow pushes to a hot flow do
// not serialize on one mutex; the owning unit drains all shards during
// processing, and each shard drain is a single slice swap under the shard
// lock rather than a per-message copy. Payloads are plain values (no
// pointers), so drained buffers are reused without clearing.
//
// A flow has at most one runner at a time (the unit state machine
// guarantees it), so drain, release and reset never race with themselves —
// only put and putAll are called concurrently.

const (
	// inboxShards must be a power of two (the round-robin pick masks).
	inboxShards = 4
	// inboxTrimCap bounds the backing capacity an inbox retains once its
	// traffic falls. Without it, one burst of cross-flow messages
	// permanently pins its high-water-mark array on every flow it touched;
	// buffers beyond the cap are dropped for the allocator to reclaim when
	// a drain finds at most inboxTrimCap messages, and at reset. While
	// traffic stays above the cap the buffers are reused as they are.
	inboxTrimCap = 1024
)

type inboxShard[T any] struct {
	mu   sync.Mutex
	msgs []T
	// spare is the previously drained buffer, kept for reuse. Only the
	// drainer touches it.
	spare []T
}

type inbox[T any] struct {
	rr atomic.Uint32
	// queued counts the messages put and not yet drained. A sender adds
	// after appending and before it activates the flow, so a drain that
	// reads zero can return at once: the activation re-runs the unit.
	queued atomic.Int64
	shards [inboxShards]inboxShard[T]
}

func (b *inbox[T]) put(m T) {
	s := &b.shards[b.rr.Add(1)&(inboxShards-1)]
	s.mu.Lock()
	s.msgs = append(s.msgs, m)
	s.mu.Unlock()
	b.queued.Add(1)
}

// putAll appends every message of ms to one shard under a single lock: a
// sender's batched messages for this flow, copied, so the sender keeps and
// reuses its buffer.
func (b *inbox[T]) putAll(ms []T) {
	if len(ms) == 0 {
		return
	}
	s := &b.shards[b.rr.Add(1)&(inboxShards-1)]
	s.mu.Lock()
	s.msgs = append(s.msgs, ms...)
	s.mu.Unlock()
	b.queued.Add(int64(len(ms)))
}

// drain moves every pending message into buf (reusing its capacity) and
// returns it. Message order across shards is arbitrary; all inbox payloads
// are commutative (monotonic candidate merges, dirty-vertex batches).
func (b *inbox[T]) drain(buf []T) []T {
	buf = buf[:0]
	n := b.queued.Load()
	if n == 0 {
		return buf
	}
	decay := n <= inboxTrimCap // traffic fell: let a burst's buffers go
	for i := range b.shards {
		s := &b.shards[i]
		if decay && cap(s.spare) > inboxTrimCap {
			s.spare = nil
		}
		s.mu.Lock()
		taken := s.msgs
		s.msgs = s.spare[:0] // the swap: senders now fill the spare buffer
		s.mu.Unlock()
		buf = append(buf, taken...)
		if decay && cap(taken) > inboxTrimCap {
			taken = nil
		}
		s.spare = taken[:0]
	}
	b.queued.Add(-int64(len(buf)))
	return buf
}

// release drops the buffers of drained shards, so they do not outlive the
// step that grew them; a shard still holding messages keeps them. The
// manager calls it while no unit is running.
func (b *inbox[T]) release() {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		if len(s.msgs) == 0 {
			s.msgs = nil
		}
		s.spare = nil
		s.mu.Unlock()
	}
}

// empty reports whether any shard holds a message.
func (b *inbox[T]) empty() bool {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		n := len(s.msgs)
		s.mu.Unlock()
		if n > 0 {
			return false
		}
	}
	return true
}

// reset clears the inbox between batches, applying the same capacity decay
// as drain. The manager calls it while no unit is running.
func (b *inbox[T]) reset() {
	b.queued.Store(0)
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		if cap(s.msgs) > inboxTrimCap {
			s.msgs = nil
		}
		if cap(s.spare) > inboxTrimCap {
			s.spare = nil
		}
		s.msgs = s.msgs[:0]
		s.spare = s.spare[:0]
		s.mu.Unlock()
	}
}

// capSum reports the total retained backing capacity, for the
// capacity-decay regression test.
func (b *inbox[T]) capSum() int {
	total := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		total += cap(s.msgs) + cap(s.spare)
		s.mu.Unlock()
	}
	return total
}
