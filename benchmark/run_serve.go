package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Serving configuration: graphflyd's defaults.
const (
	serveGroupWindow   = 500 * time.Microsecond
	serveSnapshotEvery = 16
	serveMaxPending    = 64
	serveDedupWindow   = 64
	// closedWindow is the closed phase's client count in disguise: the one
	// ingest connection keeps at most this many batches acknowledged but
	// not yet read-visible. Half the admission window, so the server never
	// has cause to reject.
	closedWindow = serveMaxPending / 2
	// openShare of -seconds goes to the open-loop phase; the closed phase is
	// fixed work (spec.Batches) sized to fill about the rest.
	openShare = 0.7
)

// served is one server brought up over a fresh WAL directory, with its two
// client connections.
type served struct {
	dir  string
	ecfg engine.Config
	dc   wal.DurableConfig
	srv  *serve.Server
	ing  *serve.Client
	qry  *serve.Client
}

// bringUp is the serve workload's set-up: build the graph, construct the
// durable engine (static solve, WAL create, seq-0 snapshot), listen, dial
// one ingest and one query connection. reg is nil on untraced runs.
func bringUp(in inputs, base string, reg *metrics.Registry) (*served, time.Duration, error) {
	dir, err := os.MkdirTemp(base, "wal-")
	if err != nil {
		return nil, 0, err
	}
	h := &served{dir: dir,
		ecfg: engine.Config{Metrics: reg},
		dc: wal.DurableConfig{
			Wal:           wal.Options{Dir: dir, Policy: wal.FsyncAlways, GroupWindow: serveGroupWindow, Metrics: reg},
			SnapshotEvery: serveSnapshotEvery,
			DedupWindow:   serveDedupWindow,
		}}
	t := time.Now()
	d, err := wal.NewDurableSelective(freshGraph(in), in.alg(), h.ecfg, h.dc)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	h.srv, err = serve.New(serve.Config{Addr: "127.0.0.1:0", Durable: d, Alg: in.alg(),
		MaxPending: serveMaxPending, Metrics: reg})
	if err != nil {
		d.Abandon()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	opts := serve.ClientOptions{DialTimeout: 5 * time.Second, OpTimeout: 20 * time.Second}
	opts.Role = serve.RoleIngest
	if h.ing, err = serve.DialOpts(h.srv.Addr(), opts); err == nil {
		opts.Role = serve.RoleQuery
		h.qry, err = serve.DialOpts(h.srv.Addr(), opts)
	}
	if err != nil {
		h.tearDown()
		return nil, 0, err
	}
	return h, time.Since(t), nil
}

// statProbe: one Stat round trip on the query connection, the cheapest
// request the wire carries.
func statProbe(h *served) probe {
	return probe{n: 200, step: func(int) {
		if _, err := h.qry.Stat(); err != nil {
			panic(fmt.Sprintf("stat probe: %v", err))
		}
	}}
}

// crash closes the connections and aborts the server the way kill -9 would:
// no final snapshot, no final fsync. The WAL directory stays for recovery.
func (h *served) crash() {
	for _, c := range []*serve.Client{h.ing, h.qry} {
		if c != nil {
			c.Close()
		}
	}
	h.ing, h.qry = nil, nil
	if h.srv != nil {
		h.srv.Abort()
		h.srv = nil
	}
}

func (h *served) tearDown() {
	h.crash()
	os.RemoveAll(h.dir)
}

// ackRec is one open-phase ingest: times are offsets from the phase start.
type ackRec struct {
	due, sent, acked time.Duration
	seq              uint64
}

// readRec is one reply on the query connection.
type readRec struct {
	sent, done time.Duration
	seq        uint64
	kind       byte // 'g' Get, 't' TopK, 's' Stat
	backlog    int  // Stat only: logged - applied
}

// load is what the two load goroutines recorded.
type load struct {
	acks      []ackRec
	reads     []readRec
	openEnd   time.Duration // offset at which the open phase's schedule ends
	closedN   int
	closedDur time.Duration // first closed send -> last closed batch visible
	lastSeq   uint64
	acked     []graph.Batch // every acknowledged batch in sequence order
	attempted int
	failed    int
}

var readSpanName = map[byte]string{'g': "serve.Get", 't': "serve.TopK", 's': "serve.Stat"}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// driveLimit bounds everything after the open phase (its tail becoming
// visible, the closed phase), so a wedged server fails the run instead of
// hanging it: the reader gives up, and the ingest side sees its error.
const driveLimit = 90 * time.Second

// drive runs the open phase (fixed arrival schedule, latency from the
// intended send time) and then the closed phase (back to back under
// closedWindow) against a live server. rec is nil on untraced runs;
// atOpenEnd, when set, runs between the phases.
func drive(in inputs, h *served, openN, closedN int, rec *recorder, atOpenEnd func()) (*load, error) {
	s := in.spec
	interval := s.OpenEvery
	openFor := time.Duration(openN) * interval
	ld := &load{openEnd: openFor}
	if openN+closedN > len(in.w.Batches) {
		return nil, fmt.Errorf("stream holds %d batches, need %d", len(in.w.Batches), openN+closedN)
	}
	t0 := time.Now()
	var seen atomic.Uint64   // highest snapshot seq any reply carried
	var target atomic.Uint64 // stop reading once seen >= target (0 = keep going)
	var visibleAt atomic.Int64
	var readFailed atomic.Int64
	var readErrP atomic.Pointer[error] // transport fault on the query connection
	readErr := func() error {
		if p := readErrP.Load(); p != nil {
			return *p
		}
		return nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // query connection: its own fixed schedule
		defer wg.Done()
		tick := time.Second / time.Duration(s.GetsPerS)
		scanEvery := s.GetsPerS / s.ScansPerS
		note := func(kind byte, seq uint64, backlog int, start time.Time, err error) bool {
			done := time.Now()
			if err != nil {
				readFailed.Add(1)
				var re *serve.RejectError
				if !errors.As(err, &re) {
					readErrP.Store(&err) // an anonymous session cannot resume
					return false
				}
				return true
			}
			ld.reads = append(ld.reads, readRec{start.Sub(t0), done.Sub(t0), seq, kind, backlog})
			rec.add(readSpanName[kind], start, done, -1, -1)
			if seq > seen.Load() {
				seen.Store(seq)
			}
			if tg := target.Load(); tg != 0 && seq >= tg && visibleAt.Load() == 0 {
				visibleAt.Store(int64(done.Sub(t0)))
			}
			return true
		}
		for k := 0; visibleAt.Load() == 0; k++ {
			sleepUntil(t0.Add(time.Duration(k) * tick))
			start := time.Now()
			if start.Sub(t0) > openFor+driveLimit {
				err := fmt.Errorf("load did not finish within %v of the open phase", driveLimit)
				readErrP.Store(&err)
				return
			}
			_, _, seq, err := h.qry.Get(in.reads[k&(len(in.reads)-1)])
			if !note('g', seq, 0, start, err) {
				return
			}
			if k%scanEvery != scanEvery-1 {
				continue
			}
			start = time.Now()
			_, seq, err = h.qry.TopK(10)
			if !note('t', seq, 0, start, err) {
				return
			}
			start = time.Now()
			st, err := h.qry.Stat()
			if !note('s', st.AppliedSeq, int(st.LoggedSeq-st.AppliedSeq), start, err) {
				return
			}
		}
	}()

	// Ingest connection. A rejected or failed ingest counts as failed and
	// gives no latency sample; the batch is re-sent so the stream stays
	// valid.
	ingest := func(b graph.Batch) (seq uint64, ok bool, err error) {
		ld.attempted++
		seq, err = h.ing.Ingest(b)
		if err == nil {
			return seq, true, nil
		}
		ld.failed++
		for try := 0; try < 50; try++ {
			time.Sleep(2 * time.Millisecond)
			if seq, err = h.ing.Ingest(b); err == nil {
				return seq, false, nil
			}
		}
		return 0, false, fmt.Errorf("ingest gave up: %w", err)
	}
	fail := func(err error) (*load, error) {
		target.Store(1) // release the reader
		visibleAt.Store(1)
		wg.Wait()
		return nil, err
	}
	for i := 0; i < openN; i++ {
		due := t0.Add(time.Duration(i) * interval)
		sleepUntil(due)
		sent := time.Now()
		seq, ok, err := ingest(in.w.Batches[i])
		acked := time.Now()
		if err != nil {
			return fail(err)
		}
		ld.acked = append(ld.acked, in.w.Batches[i])
		ld.lastSeq = seq
		if ok {
			ld.acks = append(ld.acks, ackRec{due.Sub(t0), sent.Sub(t0), acked.Sub(t0), seq})
			rec.add("serve.Ingest", sent, acked, -1, int(seq))
		}
	}
	// Let the open phase's tail become visible so the closed phase is not
	// charged for it.
	for seen.Load() < ld.lastSeq {
		if err := readErr(); err != nil {
			return fail(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	sleepUntil(t0.Add(openFor))
	if atOpenEnd != nil {
		atOpenEnd()
	}

	closedStart := time.Now()
	for i := openN; i < openN+closedN; i++ {
		for ld.lastSeq >= seen.Load()+closedWindow {
			if err := readErr(); err != nil {
				return fail(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		sent := time.Now()
		seq, _, err := ingest(in.w.Batches[i])
		if err != nil {
			return fail(err)
		}
		rec.add("serve.Ingest", sent, time.Now(), -1, int(seq))
		ld.acked = append(ld.acked, in.w.Batches[i])
		ld.lastSeq = seq
	}
	target.Store(ld.lastSeq)
	wg.Wait()
	if err := readErr(); err != nil {
		return nil, fmt.Errorf("query connection: %w", err)
	}
	ld.closedN = closedN
	ld.closedDur = time.Duration(visibleAt.Load()) - closedStart.Sub(t0)
	ld.attempted += len(ld.reads) + int(readFailed.Load())
	ld.failed += int(readFailed.Load())
	return ld, nil
}

// clientSide is what the two connections saw, derived after the run.
type clientSide struct {
	ackMs, visMs, lagMs, lateMs sample // open phase, one value per batch
	getUs, topkUs               sample // open phase, timed from the actual send
	backlogMax, backlogEnd      int    // open phase, from Stat
	cycleRate                   sample // closed phase: updates/s of each snapshot cycle
}

// observe derives the client-side samples. Visible latency is intended send
// -> first reply on the query connection whose snapshot sequence covers the
// batch, so its resolution is the spacing of the reads.
func (ld *load) observe(batchSize int) clientSide {
	var c clientSide
	doneOf := func(seq uint64) (time.Duration, bool) {
		i := sort.Search(len(ld.reads), func(i int) bool { return ld.reads[i].seq >= seq })
		if i == len(ld.reads) {
			return 0, false
		}
		return ld.reads[i].done, true
	}
	for _, a := range ld.acks {
		c.ackMs = append(c.ackMs, ms(a.acked-a.due))
		c.lateMs = append(c.lateMs, ms(a.sent-a.due))
		if vis, ok := doneOf(a.seq); ok {
			c.visMs = append(c.visMs, ms(vis-a.due))
			c.lagMs = append(c.lagMs, ms(vis-a.acked))
		}
	}
	for _, r := range ld.reads {
		if r.sent >= ld.openEnd {
			break
		}
		switch r.kind {
		case 'g':
			c.getUs = append(c.getUs, us(r.done-r.sent))
		case 't':
			c.topkUs = append(c.topkUs, us(r.done-r.sent))
		case 's':
			if r.backlog > c.backlogMax {
				c.backlogMax = r.backlog
			}
			c.backlogEnd = r.backlog
		}
	}
	// The closed phase starts on a snapshot boundary, so each run of
	// serveSnapshotEvery batches pays exactly one WAL snapshot and two
	// repartitions: one repetition of the closed loop.
	first := ld.lastSeq - uint64(ld.closedN)
	for k := 0; (k+1)*serveSnapshotEvery <= ld.closedN; k++ {
		from, ok1 := doneOf(first + uint64(k*serveSnapshotEvery))
		to, ok2 := doneOf(first + uint64((k+1)*serveSnapshotEvery))
		if ok1 && ok2 && to > from {
			c.cycleRate = append(c.cycleRate, float64(serveSnapshotEvery*batchSize)/(to-from).Seconds())
		}
	}
	return c
}

// recovery is the crash-and-recover phase: what RecoverSelective rebuilt
// from the directory the aborted server left.
type recovery struct {
	durS   sample
	stats  wal.RecoveryStats
	values []float64
}

func recoverFrom(in inputs, h *served, times int) (*recovery, error) {
	r := &recovery{}
	for i := 0; i < times; i++ {
		t := time.Now()
		d, rs, err := wal.RecoverSelective(in.alg(), h.ecfg, h.dc)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		r.durS = append(r.durS, time.Since(t).Seconds())
		r.stats, r.values = rs, d.Eng.Values()
		d.Abandon()
	}
	return r, nil
}

// restoreHalf times the restore half of a recovery alone (newest snapshot ->
// graph -> engine), so the replay half can be told apart.
func restoreHalf(in inputs, h *served) (float64, error) {
	seqs, err := wal.Snapshots(h.dir)
	if err != nil || len(seqs) == 0 {
		return 0, fmt.Errorf("recover: no snapshot in %s (%v)", h.dir, err)
	}
	t := time.Now()
	sd, err := wal.ReadSnapshot(filepath.Join(h.dir, wal.SnapName(seqs[len(seqs)-1])))
	if err != nil {
		return 0, err
	}
	if _, err := engine.NewSelectiveFromState(graph.FromEdges(sd.NumV, sd.Edges), in.alg(), engine.Config{}, sd.Vals, sd.Parent); err != nil {
		return 0, err
	}
	return ms(time.Since(t)), nil
}

// verifyServe checks the served and the recovered state against a
// from-scratch solve of the graph every acknowledged batch produces, and the
// recovery's replay accounting. Each check is one attempted operation.
func verifyServe(in inputs, ld *load, final *engine.StateSnapshot, r *recovery) (attempted, failed int, firstErr error) {
	g := freshGraph(in)
	for _, b := range ld.acked {
		g.ApplyBatch(b)
	}
	want, _ := algo.SolveSelective(g, in.alg())
	check := func(err error) {
		attempted++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	diverge := func(what string, got []float64) error {
		if i, bad := oracle.FirstDivergence(got, want, 0); bad {
			return fmt.Errorf("%s: vertex %d = %v, reference %v", what, i, got[i], want[i])
		}
		return nil
	}
	if final.Seq != ld.lastSeq {
		check(fmt.Errorf("final snapshot at seq %d, last acknowledged %d", final.Seq, ld.lastSeq))
	} else {
		check(diverge("served snapshot", final.Vals))
	}
	if r.stats.LastSeq != ld.lastSeq {
		check(fmt.Errorf("recovered through seq %d, last acknowledged %d", r.stats.LastSeq, ld.lastSeq))
	} else {
		check(diverge("recovered engine", r.values))
	}
	if v := oracle.CheckReplay("serve/SSSP", r.stats.SnapshotSeq, r.stats.LastSeq, r.stats.Replayed); v != nil {
		check(v)
	} else {
		check(nil)
	}
	return
}

// openBatches is the open phase's length in batches: openShare of seconds
// at the frozen rate, in whole WAL-snapshot cycles. The applier stalls once
// per cycle, so a partial cycle would weight the latency distribution by
// where in the cycle the phase happened to stop.
func openBatches(s spec, seconds float64) int {
	cycles := int(openShare*seconds/(serveSnapshotEvery*s.OpenEvery.Seconds()) + 0.5)
	if cycles < 1 {
		cycles = 1
	}
	return cycles * serveSnapshotEvery
}

// runServe runs serve-sssp-tt.
func runServe(s spec, o runOpts) (*result, error) {
	tGen := time.Now()
	in := generate(s, o.seed, openBatches(s, o.seconds)+s.Batches)
	genS := time.Since(tGen).Seconds()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if o.traced {
		return serveTraced(in, o, genS)
	}
	return serveUntraced(in, o)
}

// serveUntraced is the end-to-end run: set up three times for a median,
// measure on the last server.
func serveUntraced(in inputs, o runOpts) (*result, error) {
	s := in.spec
	var setupS sample
	var h *served
	for i := 0; i < 3; i++ {
		if h != nil {
			h.tearDown()
		}
		var d time.Duration
		var err error
		if h, d, err = bringUp(in, o.outDir, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer h.tearDown()
	ld, err := drive(in, h, openBatches(s, o.seconds), s.Batches, nil, nil)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	final := h.srv.Snapshot()
	h.crash()
	r, err := recoverFrom(in, h, 1)
	if err != nil {
		return nil, err
	}
	c := ld.observe(s.BatchSize)
	v := values{}
	v.set("setup_s", setupS.p50(), len(setupS))
	// The median cycle, not the best: a cycle is one WAL snapshot write and
	// two repartitions, whose noise (disk, memory traffic) is symmetric.
	v.set("updates_per_s", c.cycleRate.p50(), len(c.cycleRate))
	v.set("batch_ms_p50", c.visMs.p50(), len(c.visMs))
	v.set("batch_ms_p95", c.visMs.p95(), len(c.visMs))
	v.set("heap_mb", heap, 1)
	res := newResult(s, o)
	res.Samples = map[string]sample{"setup_s": setupS, "updates_per_s": c.cycleRate, "visible_ms": c.visMs, "ack_ms": c.ackMs}
	res.noteLateness(c.lateMs)
	a, f, verr := verifyServe(in, ld, final, r)
	res.tally(ld.attempted+a, ld.failed+f, verr)
	res.Metrics, err = v.finish(endToEnd, false)
	return res, err
}

// serveTraced is the traced run: a short untraced open phase first (the
// overhead baseline), then the full run with every registry set and spans
// recorded around each call.
func serveTraced(in inputs, o runOpts, genS float64) (*result, error) {
	s := in.spec
	res, v := newResult(s, o), values{}
	openN := openBatches(s, o.seconds)
	h0, _, err := bringUp(in, o.outDir, nil)
	if err != nil {
		return nil, err
	}
	ld0, err := drive(in, h0, openBatches(s, o.seconds/2), 0, nil, nil)
	h0.tearDown()
	if err != nil {
		return nil, err
	}
	vis0 := ld0.observe(s.BatchSize).visMs

	reg := metrics.NewRegistry()
	rec := newRecorder()
	tSetup := time.Now()
	h, setup, err := bringUp(in, o.outDir, reg)
	if err != nil {
		return nil, err
	}
	defer h.tearDown()
	rec.add("setup", tSetup, tSetup.Add(setup), -1, -1)
	rttNs, _, err := statProbe(h).pass() // the wire alone, on the idle server
	if err != nil {
		return nil, err
	}
	// The server's histograms are cumulative; the budget decomposes the
	// open phase, so they are read where that phase ends.
	var open metrics.Snapshot
	ld, err := drive(in, h, openN, s.Batches, rec, func() { open = reg.Snapshot() })
	if err != nil {
		return nil, err
	}
	final := h.srv.Snapshot()
	h.crash()
	tRec := time.Now()
	r, err := recoverFrom(in, h, 3)
	if err != nil {
		return nil, err
	}
	restoreMs, err := restoreHalf(in, h)
	if err != nil {
		return nil, err
	}
	rec.add("wal.RecoverSelective", tRec, tRec.Add(time.Duration(r.durS[0]*float64(time.Second))), -1, -1)

	c := ld.observe(s.BatchSize)
	vis50, n := c.visMs.p50(), len(c.visMs)
	histMs := func(name string) (p50, p95 float64) {
		hs := open.Histograms[name]
		return float64(hs.P50) / 1e6, float64(hs.P95) / 1e6
	}
	batches := float64(open.Counters["batch.count"])
	perBatch := func(name string) float64 { return ratio(float64(open.Counters[name]), batches) }
	// inSitu files an engine phase's median and its share of visible p50.
	inSitu := func(metric, share, hist string) (p50, p95 float64) {
		p50, p95 = histMs(hist)
		v.set(metric, p50, int(batches))
		v.set(share, ratio(p50, vis50), n)
		return
	}
	inSitu("graph.apply_ms_p50", "graph.apply_share", "phase.apply_ns")
	// The registry folds D-tree upkeep into the maintain phase, so on this
	// workload etree.maintain_* read 0 and the flow-index row carries both.
	// One batch in eight repartitions, so the p95 of the phase sits inside
	// the repartition batches.
	_, maint95 := inSitu("dflow.flowindex_ms_p50", "dflow.flowindex_share", "phase.maintain_ns")
	v.set("dflow.repartition_batch_ms_p50", maint95, int(batches))
	inSitu("engine.trim_ms_p50", "engine.trim_share", "phase.trim_ns")
	inSitu("engine.schedule_ms_p50", "engine.schedule_share", "phase.schedule_ns")
	_, comp95 := inSitu("engine.compute_ms_p50", "engine.compute_share", "phase.compute_ns")
	v.set("engine.compute_ms_p95", comp95, int(batches))
	v.set("dflow.units_per_batch", perBatch("schedule.units"), int(batches))
	v.set("engine.trim_roots_per_batch", perBatch("trim.roots"), int(batches))
	v.set("engine.trimmed_per_batch", perBatch("trim.vertices"), int(batches))
	v.set("engine.relaxations_per_batch", perBatch("compute.relaxations"), int(batches))
	v.set("engine.pulls_per_batch", perBatch("compute.pulls"), int(batches))
	v.set("engine.relax_per_us", ratio(float64(open.Counters["compute.relaxations"]), float64(open.Histograms["phase.compute_ns"].SumNs)/1e3), int(batches))
	v.set("engine.cross_msgs_per_batch", perBatch("compute.cross_msgs"), int(batches))
	v.set("engine.dispatches_per_batch", perBatch("sched.dispatches"), int(batches))
	v.set("engine.steals_per_batch", perBatch("sched.steals"), int(batches))
	v.set("engine.parks_per_batch", perBatch("sched.parks"), int(batches))

	app50, app95 := histMs("wal.append_ns")
	fs50, fs95 := histMs("wal.fsync_ns")
	appends := open.Counters["wal.appends"]
	v.set("wal.append_us_p50", app50*1e3, int(appends))
	v.set("wal.fsync_us_p50", fs50*1e3, int(open.Counters["wal.fsyncs"]))
	v.set("wal.fsync_us_p95", fs95*1e3, int(open.Counters["wal.fsyncs"]))
	v.set("wal.fsyncs_per_append", ratio(float64(open.Counters["wal.fsyncs"]), float64(appends)), int(appends))
	v.set("wal.snapshots", float64(reg.Counter("wal.snapshots").Value()), 1)
	v.set("wal.recover_s", r.durS.p50(), len(r.durS))
	v.set("wal.recover_restore_ms", restoreMs, 1)
	v.set("wal.recover_replay_ms", r.durS.p50()*1000-restoreMs, len(r.durS))
	v.set("wal.replayed_batches", float64(r.stats.Replayed), 1)

	lag50, lag95 := histMs("serve.read_lag_ns")
	v.set("serve.wire_rtt_us_p50", rttNs.p50()/1e3, len(rttNs))
	v.set("serve.ack_overhead_us_p50", (c.ackMs.p50()-app50-fs50)*1e3, len(c.ackMs))
	v.set("serve.apply_lag_ms_p50", c.lagMs.p50(), len(c.lagMs))
	v.set("serve.apply_lag_ms_p95", c.lagMs.p95(), len(c.lagMs))
	v.set("serve.read_lag_us_p50", lag50*1e3, int(batches))
	v.set("serve.read_lag_us_p95", lag95*1e3, int(batches))
	v.set("serve.group_size_mean", open.Histograms["serve.group_commit_size"].Mean, int(appends))
	v.set("serve.rejects", float64(reg.Counter("serve.rejected").Value()), 1)
	v.set("serve.backlog_max", float64(c.backlogMax), 1)
	v.set("serve.backlog_end", float64(c.backlogEnd), 1)
	v.set("serve.closed_batches_per_s", ratio(float64(ld.closedN), ld.closedDur.Seconds()), ld.closedN)
	v.set("serve.ack_ms_p50", c.ackMs.p50(), len(c.ackMs))
	v.set("serve.ack_ms_p95", c.ackMs.p95(), len(c.ackMs))
	v.set("serve.ack_ms_p99", c.ackMs.p99(), len(c.ackMs))
	v.set("serve.visible_ms_p99", c.visMs.p99(), n)
	v.set("serve.read_us_p50", c.getUs.p50(), len(c.getUs))
	v.set("serve.read_us_p99", c.getUs.p99(), len(c.getUs))
	v.set("serve.topk_us_p50", c.topkUs.p50(), len(c.topkUs))
	v.set("loadgen.late_ms_p95", c.lateMs.p95(), len(c.lateMs))
	v.set("loadgen.late_ms_max", c.lateMs.max(), len(c.lateMs))
	v.set("trace.overhead_pct", 100*(ratio(vis50, vis0.p50())-1), n)
	v.set("gen.generate_s", genS, 1)
	if err := isolatedProbes(v, in, o.outDir); err != nil {
		return nil, err
	}

	// Budget of visible latency. The server exposes histograms, not
	// per-batch stamps, so each column adds quantiles of separately measured
	// stages; the unattributed row absorbs what that leaves.
	tot50, tot95 := histMs("batch.total_ns")
	publish := v["engine.snapshot_ms_p50"].Value
	readPoll := 1000/float64(s.GetsPerS)/2 + c.getUs.p50()/2000
	queue := func(lag, apply float64) float64 {
		if q := lag - apply - publish; q > 0 {
			return q
		}
		return 0
	}
	bd := budget{Workload: s.Name, Metric: "batch_ms (send -> read-visible, open phase)", P50Ms: vis50, P95Ms: c.visMs.p95(), Samples: n, Env: res.Env}
	u50, u95 := bd.P50Ms, bd.P95Ms
	row := func(layer, note string, onPath bool, p50, p95 float64) {
		bd.Rows = append(bd.Rows, budgetRow{Layer: layer, Note: note, P50Ms: p50, P50Share: ratio(p50, bd.P50Ms), P95Ms: p95, P95Share: ratio(p95, bd.P95Ms)})
		if onPath {
			u50 -= p50
			u95 -= p95
		}
	}
	row("serve.wire+admission", "inbound leg: (ack - append - fsync) / 2", true, (c.ackMs.p50()-app50-fs50)/2, (c.ackMs.p95()-app95-fs95)/2)
	row("wal.append", "wal.append_ns", true, app50, app95)
	row("wal.fsync", "wal.fsync_ns; on the ack path only: the applier starts at append, so this row is not counted", false, fs50, fs95)
	row("serve.applier_queue", "serve.read_lag_ns - apply - publish, floored at 0; includes the WAL snapshot every 16th ApplyLogged writes", true, queue(lag50, tot50), queue(lag95, tot95))
	row("engine.apply", "batch.total_ns (the p95 is a repartition batch)", true, tot50, tot95)
	row("engine.publish", "isolated StateSnapshot", true, publish, publish)
	row("serve.read_poll", "half a read interval + half a Get round trip", true, readPoll, readPoll)
	row("unattributed", "", false, u50, u95)
	v.set("budget.unattributed_share_p50", ratio(u50, bd.P50Ms), n)
	v.set("budget.unattributed_share_p95", ratio(u95, bd.P95Ms), n)
	printBudget(bd)
	if err := writeJSON(o.outDir+"/budget-"+s.Name+".json", bd); err != nil {
		return nil, err
	}
	if err := rec.write(o.outDir + "/trace-" + s.Name + ".json"); err != nil {
		return nil, err
	}
	res.Checks = []string{
		fmt.Sprintf("attribution: unattributed share of batch_ms p50 = %.3f (want within +-0.10)", ratio(u50, bd.P50Ms)),
		fmt.Sprintf("backlog: serve.backlog_end = %d, serve.backlog_max = %d (want end <= max/2 or max <= 2: no growing backlog at one batch per %v)", c.backlogEnd, c.backlogMax, s.OpenEvery),
	}
	if c.backlogMax > 2 && c.backlogEnd > c.backlogMax/2 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("backlog still %d of max %d when the open phase ended", c.backlogEnd, c.backlogMax))
	}
	res.noteLateness(c.lateMs)
	a, f, verr := verifyServe(in, ld, final, r)
	res.tally(ld.attempted+ld0.attempted+a, ld.failed+ld0.failed+f, verr)
	res.Metrics, err = v.finish(perLayer, true)
	return res, err
}

// lateLimitMs is the generator-lateness limit of a valid run (p95 of actual
// minus intended ingest send). The reference box's timer tick is 1.1 ms and
// the generator shares both cores with the server it loads; README
// "Generator lateness" has the measurements behind the value.
const lateLimitMs = 10

// noteLateness flags the run when the ingest generator could not keep its
// schedule: latencies are timed from the intended send, so they stay
// honest, but the offered load was not the frozen one.
func (r *result) noteLateness(lateMs sample) {
	if !r.Smoke && lateMs.p95() > lateLimitMs {
		r.Invalid = append(r.Invalid, fmt.Sprintf("load generator late: p95 %.3f ms > %d ms", lateMs.p95(), lateLimitMs))
	}
}
