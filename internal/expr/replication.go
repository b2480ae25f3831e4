package expr

import (
	"fmt"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// FigS7 is the hub-replication scaling figure (this reproduction's
// counterpart to the Rhizomes/Diffusions experiment; no paper figure): the
// work-stealing scheduler swept over worker counts on a Barabási–Albert
// stream — whose hubs serialize onto single flows — with hub replication
// off and on, plus an Erdős–Rényi uniform control where no vertex clears
// the hub threshold and replication must be a no-op (parity row). Each
// cell runs with its own registry so the replica counters (hubs, routed
// messages, diffused combines) are per-configuration; the on/off speedup
// columns are what EXPERIMENTS.md tracks.
func FigS7(sc Scale) Table {
	t := Table{
		ID:    "Fig S7",
		Title: "Hub replication scaling under skew (BA vs uniform control)",
		Header: []string{"Graph", "Workers", "SSSP off ms", "SSSP on ms", "SSSP speedup",
			"PR off ms", "PR on ms", "PR speedup", "Xmsg off", "Xmsg on",
			"Hubs", "Replica msgs", "Combines"},
	}
	hubThreshold := sc.HubThreshold
	if hubThreshold == 0 {
		// At capped scales the preset graphs are small; a lower cutoff than
		// the graph default keeps a realistic hub population in play.
		hubThreshold = 32
	}
	graphs := []struct {
		name string
		kind gen.Kind
	}{
		{"BA", gen.BA},
		{"ER-uniform", gen.ER},
	}
	for _, gr := range graphs {
		cfg := dataset("TW", sc)
		cfg.Kind = gr.kind
		edges := gen.Generate(cfg)
		batch := sc.BatchSize
		if batch > len(edges)/2 {
			batch = len(edges) / 2
		}
		w := gen.BuildWorkload(cfg.NumV, edges, gen.StreamConfig{
			InitialFraction: 0.5,
			DeleteRatio:     0.1,
			BatchSize:       batch,
			NumBatches:      sc.Batches,
			Seed:            0x57,
		})
		for _, workers := range []int{1, 2, 4, 8} {
			run := func(replicate bool) (sssp, pr time.Duration, reg *metrics.Registry) {
				reg = metrics.NewRegistry()
				eCfg := engine.Config{
					Workers: workers, FlowCap: 256, Metrics: reg,
					HubReplication: replicate, HubReplicas: sc.HubReplicas,
					HubThreshold: hubThreshold,
				}
				sssp, _ = runBatches(sc, graphflySelective(w, algo.SSSP{Src: 0}, eCfg), w)
				pr, _ = runBatches(sc, graphflyAccumulative(w, algo.NewPageRank(w.NumV), eCfg), w)
				return sssp, pr, reg
			}
			sOff, pOff, regOff := run(false)
			sOn, pOn, reg := run(true)
			xOff := regOff.Counter("compute.cross_msgs").Value()
			xOn := reg.Counter("compute.cross_msgs").Value()
			hubs := int64(reg.Gauge("replica.hubs").Value())
			msgs := reg.Counter("replica.msgs").Value()
			combines := reg.Counter("replica.combines").Value()
			if rep := sc.registry(); rep != nil {
				pre := fmt.Sprintf("s7.%s.w%d.", gr.name, workers)
				rep.Gauge(pre + "hubs").Set(float64(hubs))
				rep.Counter(pre + "replica_msgs").Add(msgs)
				rep.Counter(pre + "combines").Add(combines)
				rep.Gauge(pre + "sssp_speedup").Set(ratioVal(sOff, sOn))
				rep.Gauge(pre + "pr_speedup").Set(ratioVal(pOff, pOn))
				rep.Counter(pre + "cross_msgs_off").Add(xOff)
				rep.Counter(pre + "cross_msgs_on").Add(xOn)
			}
			t.AddRow(Str(gr.name), IntCell(workers),
				Dur(sOff), Dur(sOn), Ratio(sOn, sOff),
				Dur(pOff), Dur(pOn), Ratio(pOn, pOff),
				Int64(xOff), Int64(xOn),
				Int64(hubs), Int64(msgs), Int64(combines))
		}
	}
	return t
}

// ratioVal is Ratio's underlying value for the registry mirror.
func ratioVal(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
