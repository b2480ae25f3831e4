// Package cachesim provides the memory-access profiling substrate that
// stands in for the hardware performance counters used by the paper
// (Fig 4a, Fig 12, Fig 13). Engines issue every vertex-value and edge-array
// access through a Probe; the simulating probe models a set-associative LRU
// cache and classifies each access as hit or miss, tags it with the current
// execution phase (refinement vs recomputation), and counts *redundant*
// accesses — recomputation-phase touches of data already fetched during
// refinement, exactly the redundancy GraphFly eliminates.
//
// The zero-cost path is Nop, whose methods are empty; engines take a Probe
// so wall-clock benchmarks pay only a cheap interface call.
package cachesim

// Class labels what kind of data an access touches.
type Class uint8

const (
	// ClassVertex is a vertex-value access.
	ClassVertex Class = iota
	// ClassEdge is an edge-array (structure or weight) access.
	ClassEdge
	// ClassMeta is runtime metadata (trees, frontiers, schedules).
	ClassMeta

	numClasses
)

// Phase labels which incremental-processing phase issued the access.
type Phase uint8

const (
	// PhaseNone covers initial computation and bookkeeping.
	PhaseNone Phase = iota
	// PhaseRefine is the refinement (trim / aggregate-adjust) phase.
	PhaseRefine
	// PhaseRecompute is the incremental recomputation phase.
	PhaseRecompute

	numPhases
)

// Probe receives every instrumented memory access. Implementations are not
// safe for concurrent use; parallel engines call Fork to obtain one probe
// per worker and merge statistics afterwards.
type Probe interface {
	// Access records a read (write=false) or write (write=true) of the
	// 8-byte word at addr in the given class.
	Access(addr uint64, write bool, class Class)
	// SetPhase tags subsequent accesses with the phase.
	SetPhase(p Phase)
	// BeginBatch resets per-batch redundancy tracking.
	BeginBatch()
	// Fork returns an independent probe for a parallel worker.
	Fork() Probe
}

// Nop is the zero-cost probe used by wall-clock benchmarks.
type Nop struct{}

// Access is a no-op.
func (Nop) Access(uint64, bool, Class) {}

// SetPhase is a no-op.
func (Nop) SetPhase(Phase) {}

// BeginBatch is a no-op.
func (Nop) BeginBatch() {}

// Fork returns the receiver; Nop carries no state.
func (n Nop) Fork() Probe { return n }

// Stats aggregates counters from one or more probes.
type Stats struct {
	// Reads and Writes per class.
	Reads  [3]uint64
	Writes [3]uint64
	// Hits and Misses in the simulated cache (all classes).
	Hits   uint64
	Misses uint64
	// Per-phase access counts.
	PhaseAccesses [3]uint64
	// Redundant counts recomputation-phase accesses to addresses already
	// touched during the refinement phase of the same batch.
	Redundant uint64
	// RedundantMisses are the subset of Redundant that also missed the
	// cache, i.e. data that had to be fetched from memory twice.
	RedundantMisses uint64
}

// Total returns the total number of accesses.
func (s Stats) Total() uint64 {
	var t uint64
	for c := 0; c < int(numClasses); c++ {
		t += s.Reads[c] + s.Writes[c]
	}
	return t
}

// RedundancyRatio returns the fraction of all accesses that were redundant
// re-touches across the two phases (Fig 4a's shape).
func (s Stats) RedundancyRatio() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Redundant) / float64(t)
}

// HitRate returns the simulated cache hit rate.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	for c := 0; c < int(numClasses); c++ {
		s.Reads[c] += o.Reads[c]
		s.Writes[c] += o.Writes[c]
	}
	s.Hits += o.Hits
	s.Misses += o.Misses
	for p := 0; p < int(numPhases); p++ {
		s.PhaseAccesses[p] += o.PhaseAccesses[p]
	}
	s.Redundant += o.Redundant
	s.RedundantMisses += o.RedundantMisses
}
