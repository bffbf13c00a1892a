package main

import (
	"errors"
	"fmt"
	"time"

	"memsnap/internal/disk"
	"memsnap/internal/netsvc"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// layerStats is one reading of the counters the layers export through
// their public Stats accessors.
type layerStats struct {
	shard      shard.ShardStats
	disk       disk.Stats
	net        netsvc.Stats
	retries    int64
	ship       replica.ShardRepStats // summed over shards
	ackP50     []time.Duration       // per shard
	mismatches int64
}

func readLayers(s *stack) layerStats {
	st := layerStats{shard: s.svc.TotalStats(), disk: s.sys.Array().Stats()}
	if s.srv != nil {
		st.net = s.srv.Stats()
	}
	for _, c := range s.cls {
		st.retries += c.Retries()
	}
	if s.ship != nil {
		for _, r := range s.ship.Stats() {
			st.ship.Shipped += r.Shipped
			st.ship.Acked += r.Acked
			st.ship.Retries += r.Retries
			st.ship.WireBytes += r.WireBytes
			st.ship.DiffSavedBytes += r.DiffSavedBytes
			st.ackP50 = append(st.ackP50, r.AckLatency.P50)
		}
		for _, f := range s.fol.Stats() {
			st.mismatches += f.BaseMismatches
		}
	}
	return st
}

// per divides, reporting 0 for an empty base (a layer the workload does
// not reach).
func per(n, base float64) float64 {
	if base == 0 {
		return 0
	}
	return n / base
}

// tracedRun measures the per-layer metrics. Its passes:
//   - untraced closed loop over TCP: process and layer counters per op;
//   - traced closed loop over TCP: netsvc.do spans around Client.Do, and
//     replica.ship spans on kv-repl; its throughput against the
//     untraced loop's is the tracing overhead;
//   - open loop: how late the pacer ran;
//   - the crash audit: core.Recover plus reopen, timed;
//   - direct pass: the traced loop's request stream sent straight into
//     shard.Service, shard.do spans around DoTagged;
//   - core pass: Context.Persist driven directly with the workload's
//     measured dirty pages per commit.
func tracedRun(w *workload, seed uint64, dur time.Duration, outDir string) (*report, tally, error) {
	base := readPools()
	v := newVocab(w.keys)
	zipf := sim.NewZipf(int64(w.keys), w.theta)
	part := dur / 5

	s, err := setup(w, v, zipf, seed, stackConfig{net: true, traceShip: w.repl})
	if err != nil {
		return nil, tally{}, err
	}
	var books tally
	l0 := readLayers(s)
	wins, plain, err := s.closedLoop(phaseClosed, part, nil)
	if err != nil {
		s.close()
		return nil, tally{}, err
	}
	l1 := readLayers(s)
	books.add(plain)

	netSpans := newSpanLog()
	if s.tracer != nil {
		s.tracer.record(true)
	}
	tracedWins, traced, err := s.closedLoop(phaseTraced, part, netSpans)
	if err != nil {
		s.close()
		return nil, tally{}, err
	}
	var shipSpans []span
	if s.tracer != nil {
		shipSpans = s.tracer.record(false)
	}
	books.add(traced)

	lat, lag, steal, open, err := s.openLoop(part)
	if err != nil {
		s.close()
		return nil, tally{}, err
	}
	books.add(open)
	s.books.add(books)
	final := readLayers(s)
	usedBlocks := s.free0 - s.sys.Store().FreeBlocks()
	recovered, auditErr := s.audit()

	d, err := setup(w, v, zipf, seed, stackConfig{traceShip: w.repl})
	if err != nil {
		return nil, tally{}, err
	}
	shardSpans := newSpanLog()
	if d.tracer != nil {
		d.tracer.record(true)
	}
	_, direct, err := d.closedLoop(phaseTraced, part, shardSpans)
	if err != nil {
		d.close()
		return nil, tally{}, err
	}
	var directShipSpans []span
	if d.tracer != nil {
		directShipSpans = d.tracer.record(false)
	}
	d.books.add(direct)
	books.add(direct)
	_, err = d.audit()
	auditErr = errors.Join(auditErr, err)

	pages, err := dirtyPagesPerCommit(w, v, zipf, seed)
	if err != nil {
		return nil, tally{}, err
	}
	coreSpans, err := corePass(seed, pages, part)
	if err != nil {
		return nil, tally{}, err
	}
	auditErr = errors.Join(auditErr, checkPools(base))

	if outDir != "" {
		err := writeSpans(spanFile(outDir, w, seed), []layerSpans{
			{"netsvc.do", netSpans.all()},
			{"replica.ship", shipSpans},
			{"shard.do", shardSpans.all()},
			{"replica.ship.direct", directShipSpans},
			{"core.persist", coreSpans},
		})
		if err != nil {
			return nil, tally{}, err
		}
	}

	rep := newReport()
	ops := float64(plain.attempted)
	p, pops := procTotal(wins)
	procNote := fmt.Sprintf("%.0f ops in %d windows", pops, len(wins))
	rep.set("proc.read_syscalls_per_op", "count", float64(p.syscr)/pops, procNote)
	rep.set("proc.write_syscalls_per_op", "count", float64(p.syscw)/pops, procNote)
	rep.set("proc.ctx_switches_per_op", "count", float64(p.ctxSwitches)/pops, procNote)
	rep.set("proc.allocs_per_op", "count", float64(p.allocs)/pops, procNote)
	rep.set("proc.gc_per_kop", "count", float64(p.gcs)*1000/pops, procNote)
	opsNote := fmt.Sprintf("%d untraced closed-loop ops", plain.attempted)

	netAll := netSpans.all()
	shardAll := shardSpans.all()
	if err := setTail(rep, "netsvc.do", netAll); err != nil {
		return nil, tally{}, err
	}
	rep.set("netsvc.self_us_per_op", "us", us(meanDuration(netAll)-meanDuration(shardAll)),
		"mean netsvc.do minus mean shard.do")
	rep.set("netsvc.wire_bytes_per_op", "B",
		float64(l1.net.BytesIn+l1.net.BytesOut-l0.net.BytesIn-l0.net.BytesOut)/ops, opsNote)
	rep.set("netsvc.retry_after_per_op", "count", float64(l1.net.RetryAfter-l0.net.RetryAfter)/ops, opsNote)
	rep.set("netsvc.client_retries_per_op", "count", float64(l1.retries-l0.retries)/ops, opsNote)

	if err := setTail(rep, "shard.do", shardAll); err != nil {
		return nil, tally{}, err
	}
	commits := float64(l1.shard.Commits - l0.shard.Commits)
	commitNote := fmt.Sprintf("%.0f group commits", commits)
	rep.set("shard.writes_per_commit", "count", per(float64(l1.shard.Writes-l0.shard.Writes), commits), commitNote)
	rep.set("shard.queue_high_water", "count", float64(final.shard.QueueHighWater), "deepest queue since open")
	rep.set("shard.rejected_per_op", "count", float64(l1.shard.Rejected-l0.shard.Rejected)/ops, opsNote)
	rep.set("shard.virt_commit_p50_us", "us", us(final.shard.CommitLatency.P50),
		fmt.Sprintf("virtual, n=%d", final.shard.CommitLatency.Count))
	rep.set("shard.virt_commit_p99_us", "us", us(final.shard.CommitLatency.P99),
		fmt.Sprintf("virtual, n=%d", final.shard.CommitLatency.Count))

	ct := summarize(durations(coreSpans))
	rep.set("core.persist_us", "us", us(ct.p50), fmt.Sprintf("p50, n=%d", ct.n))
	rep.set("core.dirty_pages_per_commit", "count", pages, fmt.Sprintf("calibrated over %d ops", calibrationOps))
	stages := func(a, b time.Duration) float64 { return per(us(b-a), commits) }
	rep.set("core.virt_reset_us_per_commit", "us",
		stages(l0.shard.PersistStages.ResetTracking, l1.shard.PersistStages.ResetTracking), commitNote)
	rep.set("core.virt_initiate_us_per_commit", "us",
		stages(l0.shard.PersistStages.InitiateWrites, l1.shard.PersistStages.InitiateWrites), commitNote)
	rep.set("core.virt_wait_io_us_per_commit", "us",
		stages(l0.shard.PersistStages.WaitIO, l1.shard.PersistStages.WaitIO), commitNote)
	rep.set("core.recover_ms", "ms", float64(recovered)/float64(time.Millisecond), "core.Recover plus reopen")

	rep.set("disk.writes_per_commit", "count", per(float64(l1.disk.Writes-l0.disk.Writes), commits), commitNote)
	rep.set("disk.bytes_per_commit", "B", per(float64(l1.disk.BytesWritten-l0.disk.BytesWritten), commits), commitNote)
	liveKeys := float64(tenants * w.keys)
	rep.set("objstore.blocks_per_live_key", "count", float64(usedBlocks)/liveKeys,
		fmt.Sprintf("%d blocks in use, %.0f keys", usedBlocks, liveKeys))

	shipped := float64(l1.ship.Shipped - l0.ship.Shipped)
	st := summarize(durations(shipSpans))
	if len(shipSpans) > 0 && !st.p99OK {
		return nil, tally{}, fmt.Errorf("replica.ship: %d spans cannot support a p99", st.n)
	}
	shipNote := fmt.Sprintf("n=%d", st.n)
	rep.set("replica.ship_p50_us", "us", us(st.p50), shipNote)
	rep.set("replica.ship_p99_us", "us", us(st.p99), shipNote)
	wire := float64(l1.ship.WireBytes - l0.ship.WireBytes)
	saved := float64(l1.ship.DiffSavedBytes - l0.ship.DiffSavedBytes)
	rep.set("replica.wire_bytes_per_commit", "B", per(wire, commits), commitNote)
	rep.set("replica.diff_saved_ratio", "ratio", per(saved, wire+saved), "bytes saved / full-page bytes")
	rep.set("replica.deltas_per_message", "count", per(float64(l1.ship.Acked-l0.ship.Acked), shipped),
		fmt.Sprintf("%.0f messages", shipped))
	rep.set("replica.retries_per_commit", "count", per(float64(l1.ship.Retries-l0.ship.Retries), commits), commitNote)
	rep.set("replica.base_mismatches", "count", float64(final.mismatches), "since open")
	rep.set("replica.virt_ack_p50_us", "us", us(medianDuration(final.ackP50)), "virtual, median over shards")

	gl := summarize(lag)
	if !gl.p99OK {
		return nil, tally{}, fmt.Errorf("open loop: %d samples cannot support a p99", gl.n)
	}
	rep.set("bench.gen_lag_p99_us", "us", us(gl.p99), fmt.Sprintf("n=%d", gl.n))
	perWin := int(w.rate * windowLen.Seconds())
	_, p99, nwin, ok := windowTails(lat, perWin)
	if !ok {
		return nil, tally{}, fmt.Errorf("open loop: %d samples per window cannot support a p99", perWin)
	}
	rep.set("bench.open_p99_us", "us", us(p99), fmt.Sprintf("median of %d %v windows of n=%d", nwin, windowLen, perWin))
	rep.set("bench.steal_frac", "ratio", stealFrac(steal), "CPU time the host took during the open loop")
	rep.set("bench.trace_overhead_frac", "ratio", opsPerSecond(wins)/opsPerSecond(tracedWins)-1,
		"untraced over traced closed-loop ops/s, minus 1")

	if auditErr != nil {
		return rep, books, &auditError{auditErr}
	}
	return rep, books, nil
}

// setTail reports a layer's span p50 and p99.
func setTail(rep *report, layer string, spans []span) error {
	t := summarize(durations(spans))
	if !t.p99OK {
		return fmt.Errorf("%s: %d spans cannot support a p99", layer, t.n)
	}
	note := fmt.Sprintf("n=%d", t.n)
	rep.set(layer+"_p50_us", "us", us(t.p50), note)
	rep.set(layer+"_p99_us", "us", us(t.p99), note)
	return nil
}

// procTotal sums the windows' process counters and ops.
func procTotal(wins []window) (procCounters, float64) {
	var t procCounters
	var ops float64
	for _, w := range wins {
		ops += float64(w.ops)
		t.syscr += w.proc.syscr
		t.syscw += w.proc.syscw
		t.cpu += w.proc.cpu
		t.ctxSwitches += w.proc.ctxSwitches
		t.allocs += w.proc.allocs
		t.gcs += w.proc.gcs
	}
	return t, ops
}

// opsPerSecond is the median window throughput.
func opsPerSecond(wins []window) float64 {
	var xs []float64
	for _, w := range wins {
		xs = append(xs, float64(w.ops)/w.elapsed.Seconds())
	}
	return median(xs)
}
