package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/obs"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// span is one timed call into a layer, stamped on the benchmark's own
// wall-clock epoch. The benchmark times layers only from outside: a
// span's id names its request (worker<<40 | op number) or commit
// (sequence number), and no span has a recorded parent, because the
// netsvc→shard and shard→core.Persist boundaries sit inside the server.
type span struct {
	id         uint64
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog collects one layer's spans, one slice per closed-loop worker
// so recording takes no lock.
type spanLog struct{ per [][]span }

func newSpanLog() *spanLog { return &spanLog{per: make([][]span, workers)} }

func (l *spanLog) all() []span {
	var out []span
	for _, p := range l.per {
		out = append(out, p...)
	}
	return out
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func meanDuration(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range spans {
		sum += s.dur()
	}
	return sum / time.Duration(len(spans))
}

// shipTracer is a shard.Replicator that times every ShipCommit of the
// replicator it wraps while on is set. Traced runs install it in place
// of the Shipper; timed runs never do.
type shipTracer struct {
	inner shard.Replicator
	mu    sync.Mutex
	on    bool
	spans []span
}

func (t *shipTracer) ShipCommit(sh int, at time.Duration, c shard.Commit, snap func() shard.Snapshot) (time.Duration, error) {
	t.mu.Lock()
	on := t.on
	t.mu.Unlock()
	if !on {
		return t.inner.ShipCommit(sh, at, c, snap)
	}
	start := sinceEpoch()
	done, err := t.inner.ShipCommit(sh, at, c, snap)
	end := sinceEpoch()
	t.mu.Lock()
	t.spans = append(t.spans, span{id: c.Seq, start: start, end: end})
	t.mu.Unlock()
	return done, err
}

// record turns span recording on or off and returns (and forgets) the
// spans recorded so far.
func (t *shipTracer) record(on bool) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.on, t.spans = on, nil
	return out
}

// calibrationOps is the closed-loop op count whose group commits the
// calibration stack's recorder sees.
const calibrationOps = 20_000

// dirtyPagesPerCommit measures the workload's mean dirty pages per
// group commit: a stack with an obs.Recorder runs the closed loop for
// calibrationOps ops, and every Persist span carries its page count.
func dirtyPagesPerCommit(w *workload, v *vocab, zipf *sim.Zipf, seed uint64) (float64, error) {
	rec := obs.NewRecorder(1 << 18)
	s, err := setup(w, v, zipf, seed, stackConfig{rec: rec})
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	rec.Drain() // set-up's commits are not the workload's
	var t tally
	s.run(phaseClosed, &runLimits{budget: calibrationOps}, nil, &t)
	s.books.add(t)
	var pages, persists int64
	for _, ev := range rec.Drain() {
		if ev.Kind == obs.KindSpan && ev.Cat == obs.CatPersist && ev.Name == obs.NamePersist {
			pages += ev.Arg
			persists++
		}
	}
	if _, err := s.audit(); err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	if persists == 0 {
		return 0, fmt.Errorf("calibration: no group commit in %d ops", calibrationOps)
	}
	return float64(pages) / float64(persists), nil
}

// corePass drives Context.Persist directly on a region of the shard
// size: each round writes to pagesPerCommit distinct pages on average
// (the fraction is met by rounding up at random) and times one
// synchronous Persist.
func corePass(seed uint64, pagesPerCommit float64, dur time.Duration) ([]span, error) {
	sys, err := core.NewSystem(sysOpts)
	if err != nil {
		return nil, err
	}
	proc := sys.NewProcess()
	ctx := proc.NewContext(0)
	region, err := proc.Open(ctx, "servebench/core", 4<<20)
	if err != nil {
		return nil, err
	}
	npages := region.Len() / core.PageSize
	// Fault every page in first, so rounds measure Persist alone.
	var word [8]byte
	for p := int64(0); p < npages; p++ {
		ctx.WriteAt(region, p*core.PageSize, word[:])
	}
	if _, err := ctx.Persist(region, core.MSSync); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	whole := int(pagesPerCommit)
	frac := pagesPerCommit - float64(whole)
	var spans []span
	var picked []int64
	stop := sinceEpoch() + dur
	for i := uint64(0); sinceEpoch() < stop; i++ {
		n := whole
		if rng.Float64() < frac {
			n++
		}
		picked = picked[:0]
		for len(picked) < n {
			p := rng.Int63n(npages)
			if !containsPage(picked, p) {
				picked = append(picked, p)
			}
		}
		for _, p := range picked {
			binary.LittleEndian.PutUint64(word[:], rng.Uint64())
			ctx.WriteAt(region, p*core.PageSize+rng.Int63n(core.PageSize/8)*8, word[:])
		}
		start := sinceEpoch()
		if _, err := ctx.Persist(region, core.MSSync); err != nil {
			return nil, err
		}
		spans = append(spans, span{id: i, start: start, end: sinceEpoch()})
	}
	return spans, nil
}

func containsPage(ps []int64, p int64) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// layerSpans is one layer's recorded spans, as written out.
type layerSpans struct {
	layer string
	spans []span
}

// writeSpans writes every recorded span, gzipped, one per line:
// "layer id start_ns end_ns", times since the run's epoch.
func writeSpans(path string, logs []layerSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z := gzip.NewWriter(f)
	w := bufio.NewWriter(z)
	for _, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s %d %d %d\n", l.layer, s.id, s.start.Nanoseconds(), s.end.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := z.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
