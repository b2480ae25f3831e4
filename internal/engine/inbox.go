package engine

import "sync"

// inbox is a per-flow mailbox behind one lock. Every sender batches its
// messages per target flow in an ordered outbox and delivers them with one
// putAll per flush, so a flush takes each target's lock once however many
// messages it carries. The owning unit drains during processing; a drain is
// a single slice swap under the lock rather than a per-message copy, and
// messages come out in the order they were put. Payloads are plain values
// (no pointers), so drained buffers are reused without clearing.
//
// A flow has at most one runner at a time (the unit state machine
// guarantees it), so drain, release and reset never race with themselves —
// only putAll is called concurrently.
type inbox[T any] struct {
	mu   sync.Mutex
	msgs []T
	// spare is the previously drained buffer, kept for reuse. Only the
	// drainer touches it.
	spare []T
}

// inboxTrimCap bounds the backing capacity an inbox retains once its
// traffic falls. Without it, one burst of cross-flow messages permanently
// pins its high-water-mark array on every flow it touched; buffers beyond
// the cap are dropped for the allocator to reclaim when a drain finds at
// most inboxTrimCap messages, and at reset. While traffic stays above the
// cap the buffers are reused as they are.
const inboxTrimCap = 1024

// decayed returns buf emptied for reuse, or nil when its capacity is over
// inboxTrimCap: the decay rule for a buffer kept from step to step.
func decayed[T any](buf []T) []T {
	if cap(buf) > inboxTrimCap {
		return nil
	}
	return buf[:0]
}

// putAll appends every message of ms under one lock: a sender's batched
// messages for this flow, copied, so the sender keeps and reuses its buffer.
func (b *inbox[T]) putAll(ms []T) {
	b.mu.Lock()
	b.msgs = append(b.msgs, ms...)
	b.mu.Unlock()
}

// drain moves every pending message into buf (reusing its capacity), in put
// order, and returns it.
func (b *inbox[T]) drain(buf []T) []T {
	buf = buf[:0]
	b.mu.Lock()
	taken := b.msgs
	if len(taken) == 0 {
		b.mu.Unlock()
		return buf
	}
	decay := len(taken) <= inboxTrimCap // traffic fell: let a burst's buffers go
	if decay && cap(b.spare) > inboxTrimCap {
		b.spare = nil
	}
	b.msgs = b.spare[:0] // the swap: senders now fill the spare buffer
	b.mu.Unlock()
	buf = append(buf, taken...)
	if decay && cap(taken) > inboxTrimCap {
		taken = nil
	}
	b.spare = taken[:0]
	return buf
}

// release drops the buffers of a drained inbox, so they do not outlive the
// step that grew them; an inbox still holding messages keeps them. The
// manager calls it while no unit is running.
func (b *inbox[T]) release() {
	if len(b.msgs) == 0 {
		b.msgs = nil
	}
	b.spare = nil
}

// empty reports whether no message is pending.
func (b *inbox[T]) empty() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.msgs) == 0
}

// reset clears the inbox between batches, applying the same capacity decay
// as drain. The manager calls it while no unit is running.
func (b *inbox[T]) reset() {
	if cap(b.msgs) > inboxTrimCap {
		b.msgs = nil
	}
	if cap(b.spare) > inboxTrimCap {
		b.spare = nil
	}
	b.msgs, b.spare = b.msgs[:0], b.spare[:0]
}

// capSum reports the total retained backing capacity, for the
// capacity-decay regression test.
func (b *inbox[T]) capSum() int { return cap(b.msgs) + cap(b.spare) }
