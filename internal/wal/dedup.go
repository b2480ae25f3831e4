package wal

import (
	"fmt"
	"sort"
	"sync"
)

// DedupTable is the server side of exactly-once ingest: for every client
// identity it remembers a bounded window of (clientSeq -> walSeq)
// assignments, so a batch resent after a reconnect or a daemon restart is
// recognized and acknowledged without a second append or apply.
//
// The contract with clients: each client assigns strictly increasing
// clientSeq values and never has more than one batch outstanding, so a
// clientSeq at or below the newest recorded one is always a duplicate. The
// window only bounds how far back the original walSeq can still be reported;
// older duplicates are still detected (walSeq 0) because the newest entry's
// clientSeq is a high-water mark.
//
// The table is written under the Durable's append mutex and read by the
// snapshot path outside it, so it carries its own lock.
type DedupTable struct {
	mu     sync.Mutex
	window int
	m      map[string][]dedupEntry // per client, ascending ClientSeq
	hits   uint64
}

type dedupEntry struct{ ClientSeq, WalSeq uint64 }

// DefaultDedupWindow is the per-client entry count kept when the configured
// window is not positive.
const DefaultDedupWindow = 64

// NewDedupTable builds an empty table keeping up to window entries per
// client (DefaultDedupWindow when window <= 0).
func NewDedupTable(window int) *DedupTable {
	if window <= 0 {
		window = DefaultDedupWindow
	}
	return &DedupTable{window: window, m: make(map[string][]dedupEntry)}
}

// Check reports whether (clientID, clientSeq) was already logged. For a
// duplicate inside the window it returns the original walSeq; for one that
// aged out of the window it returns walSeq 0 — still a duplicate, the caller
// acks without reapplying but cannot name the original sequence.
func (t *DedupTable) Check(clientID string, clientSeq uint64) (walSeq uint64, dup bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	es := t.m[clientID]
	if len(es) == 0 || clientSeq > es[len(es)-1].ClientSeq {
		return 0, false
	}
	t.hits++
	i := sort.Search(len(es), func(i int) bool { return es[i].ClientSeq >= clientSeq })
	if i < len(es) && es[i].ClientSeq == clientSeq {
		return es[i].WalSeq, true
	}
	return 0, true // below the window's oldest entry: ancient duplicate
}

// Record stores a fresh (clientSeq -> walSeq) assignment, trimming the
// client's window. Re-recording a clientSeq at or below the newest is a
// no-op, which makes recovery replay (snapshot table + tagged WAL tail)
// idempotent.
func (t *DedupTable) Record(clientID string, clientSeq, walSeq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	es := t.m[clientID]
	if len(es) > 0 && clientSeq <= es[len(es)-1].ClientSeq {
		return
	}
	es = append(es, dedupEntry{ClientSeq: clientSeq, WalSeq: walSeq})
	if over := len(es) - t.window; over > 0 {
		es = append(es[:0], es[over:]...)
	}
	t.m[clientID] = es
}

// Hits returns how many duplicate checks the table has answered — the
// exactly-once accounting the chaos sweeps assert on.
func (t *DedupTable) Hits() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits
}

// Clients returns the number of client identities tracked.
func (t *DedupTable) Clients() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// setWindow adjusts the per-client window for future Records.
func (t *DedupTable) setWindow(window int) {
	if window <= 0 {
		window = DefaultDedupWindow
	}
	t.mu.Lock()
	t.window = window
	t.mu.Unlock()
}

// Encode appends the table's entries with WalSeq <= maxWalSeq, the subset a
// snapshot at maxWalSeq is allowed to claim: entries for batches logged but
// not yet covered by the snapshot must be rebuilt from the WAL tail, never
// asserted by a snapshot that might outlive their frames.
func (t *DedupTable) Encode(buf []byte, maxWalSeq uint64) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.m))
	for id := range t.m {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic bytes for bit-exact snapshot compares
	e := Enc{B: buf}
	e.U32(uint32(t.window))
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		kept := 0
		for _, en := range t.m[id] {
			if en.WalSeq <= maxWalSeq {
				kept++
			}
		}
		e.Str(id)
		e.U32(uint32(kept))
		for _, en := range t.m[id] {
			if en.WalSeq <= maxWalSeq {
				e.U64(en.ClientSeq)
				e.U64(en.WalSeq)
			}
		}
	}
	return e.B
}

// DecodeDedupTable decodes Encode's payload with the codec package's usual
// strictness: every length is validated before allocation.
func DecodeDedupTable(p []byte) (*DedupTable, error) {
	d := Dec{B: p}
	window := int(d.U32())
	n := int(d.U32())
	if d.Bad() || window < 1 || window > 1<<20 || n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("%w: dedup table header", ErrCorrupt)
	}
	t := NewDedupTable(window)
	for i := 0; i < n; i++ {
		id := d.Str()
		cnt := d.Count(16)
		if d.Bad() || id == "" || len(id) > maxClientIDLen || cnt > window {
			return nil, fmt.Errorf("%w: dedup table client %d", ErrCorrupt, i)
		}
		es := make([]dedupEntry, cnt)
		var prev uint64
		for j := range es {
			es[j] = dedupEntry{ClientSeq: d.U64(), WalSeq: d.U64()}
			if j > 0 && es[j].ClientSeq <= prev {
				return nil, fmt.Errorf("%w: dedup table client %q out of order", ErrCorrupt, id)
			}
			prev = es[j].ClientSeq
		}
		t.m[id] = es
	}
	if err := d.Err("dedup table"); err != nil {
		return nil, err
	}
	return t, nil
}
