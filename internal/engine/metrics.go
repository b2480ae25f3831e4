package engine

import "repro/internal/metrics"

// Point converts the stats into the metrics layer's batch record.
func (st BatchStats) Point() metrics.BatchPoint {
	return metrics.BatchPoint{
		ApplyNs:    int64(st.ApplyTime),
		MaintainNs: int64(st.MaintainTime),
		TrimNs:     int64(st.TrimTime),
		ScheduleNs: int64(st.ScheduleTime),
		ComputeNs:  int64(st.ComputeTime),
		TotalNs:    int64(st.Total),
		Applied:    st.Applied,
	}
}

// observe feeds one batch's stats into the configured registry. With a
// nil registry (the default) this is a single branch per batch.
func (c Config) observe(st *BatchStats) {
	r := c.Metrics
	if r == nil {
		return
	}
	r.Histogram("phase.apply_ns").Observe(int64(st.ApplyTime))
	r.Histogram("phase.maintain_ns").Observe(int64(st.MaintainTime))
	r.Histogram("phase.trim_ns").Observe(int64(st.TrimTime))
	r.Histogram("phase.schedule_ns").Observe(int64(st.ScheduleTime))
	r.Histogram("phase.compute_ns").Observe(int64(st.ComputeTime))
	r.Histogram("batch.total_ns").Observe(int64(st.Total))
	r.Counter("batch.count").Inc()
	r.Counter("updates.applied").Add(int64(st.Applied))
	r.Counter("trim.roots").Add(int64(st.TrimRoots))
	r.Counter("trim.vertices").Add(int64(st.Trimmed))
	r.Counter("schedule.units").Add(int64(st.Units))
	r.Counter("compute.relaxations").Add(st.Relaxations)
	r.Counter("compute.pulls").Add(st.Pulls)
	r.Counter("compute.cross_msgs").Add(st.CrossMsgs)
	r.Counter("sched.dispatches").Add(st.Dispatches)
	r.Counter("sched.steals").Add(st.Steals)
	r.Counter("sched.parks").Add(st.SchedParks)
	r.Gauge("schedule.levels").Set(float64(st.Levels))
	r.Gauge("schedule.impacted_flows").Set(float64(st.Impacted))
}
