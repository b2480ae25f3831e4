package expr

import (
	"repro/internal/algo"
	"repro/internal/engine"
)

// AblationFlowCap sweeps the dependency-flow size cap (the scheduling
// granularity DESIGN.md calls out): tiny flows pay scheduling overhead,
// huge flows lose parallelism and cache fit.
func AblationFlowCap(sc Scale) Table {
	t := Table{
		ID:     "Ablation A1",
		Title:  "Flow size cap sweep (SSSP on TW)",
		Header: []string{"FlowCap", "GraphFly ms", "Flows"},
	}
	w := workload("TW", sc, 0.3, 0xA1)
	for _, cap := range []int{64, 256, 1024, 4096} {
		e := graphflySelective(w, algo.SSSP{Src: 0}, engine.Config{Workers: sc.Workers, Scheduler: sc.Scheduler, DenseOff: sc.DenseOff, FlowCap: cap})
		total, _ := runBatches(sc, e, w)
		t.AddRow(IntCell(cap), Dur(total), IntCell(e.Partition().NumFlows()))
	}
	return t
}

// AblationSCC compares cyclic-group merging (§V-A) against scheduling
// every impacted flow independently.
func AblationSCC(sc Scale) Table {
	t := Table{
		ID:     "Ablation A2",
		Title:  "SCC merging of cyclic flow groups (SSSP on TW)",
		Header: []string{"Mode", "GraphFly ms", "CrossMsgs"},
	}
	w := workload("TW", sc, 0.3, 0xA2)
	for _, noMerge := range []bool{false, true} {
		cfg := engine.Config{Workers: sc.Workers, Scheduler: sc.Scheduler, DenseOff: sc.DenseOff, NoSCCMerge: noMerge}
		total, stats := runBatches(sc, graphflySelective(w, algo.SSSP{Src: 0}, cfg), w)
		var msgs int64
		for _, st := range stats {
			msgs += st.CrossMsgs
		}
		mode := "merge cycles"
		if noMerge {
			mode = "independent"
		}
		t.AddRow(Str(mode), Dur(total), Int64(msgs))
	}
	return t
}

// AblationAsync compares GraphFly's fused asynchronous execution against a
// two-phase run (global barrier between refinement and recomputation) on
// GraphFly's own data structures — isolating the paper's core claim from
// the storage layout.
func AblationAsync(sc Scale) Table {
	t := Table{
		ID:     "Ablation A3",
		Title:  "Asynchronous fused phases vs global two-phase barrier (SSSP on TW)",
		Header: []string{"Mode", "GraphFly ms"},
	}
	w := workload("TW", sc, 0.3, 0xA3)
	for _, twoPhase := range []bool{false, true} {
		cfg := engine.Config{Workers: sc.Workers, Scheduler: sc.Scheduler, DenseOff: sc.DenseOff, TwoPhase: twoPhase}
		total, _ := runBatches(sc, graphflySelective(w, algo.SSSP{Src: 0}, cfg), w)
		mode := "async fused"
		if twoPhase {
			mode = "two-phase barrier"
		}
		t.AddRow(Str(mode), Dur(total))
	}
	return t
}

// AblationTriangle compares which triangle of the adjacency matrix defines
// the flows (§V-A Discussion: "We can switch the roles of the upper and
// lower triangles") on PageRank.
func AblationTriangle(sc Scale) Table {
	t := Table{
		ID:     "Ablation A4",
		Title:  "Flow triangle role swap (PageRank on UK)",
		Header: []string{"FlowTriangle", "GraphFly ms", "Flows"},
	}
	w := workload("UK", sc, 0.3, 0xA4)
	for _, backward := range []bool{false, true} {
		cfg := engine.Config{Workers: sc.Workers, Scheduler: sc.Scheduler, DenseOff: sc.DenseOff, BackwardFlows: backward}
		e := graphflyAccumulative(w, algo.NewPageRank(w.NumV), cfg)
		total, _ := runBatches(sc, e, w)
		name := "forward (lower)"
		if backward {
			name = "backward (upper)"
		}
		t.AddRow(Str(name), Dur(total), IntCell(e.Partition().NumFlows()))
	}
	return t
}

// Ablations runs all ablation studies.
func Ablations(sc Scale) []Table {
	return []Table{AblationFlowCap(sc), AblationSCC(sc), AblationAsync(sc), AblationTriangle(sc)}
}
