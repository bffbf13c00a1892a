// Command servebench is the repository's serving benchmark. It runs
// one named workload (kv-read, kv-write or kv-repl) against an
// in-process shard.Service behind netsvc.Serve on loopback TCP — the
// stack msnap-load -spawn builds — with a replica.Shipper and follower
// attached for kv-repl, and checks every run with correctness audits.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash servebench/run.sh --workload kv-read --seed 1 --seconds 30 --trace 0
//
// A timed run (--trace 0) sets up the stack several times, then runs a
// closed loop (throughput and CPU per op) and an open loop at the
// workload's fixed rate (latency from each request's due time), and
// prints the end-to-end metrics. A traced run (--trace 1) instead times
// calls into each layer from outside it — Client.Do over TCP,
// Service.DoTagged in process, Shipper.ShipCommit through a wrapping
// replicator, and Context.Persist driven directly — and prints the
// per-layer metrics and the tracing overhead. The last line of
// standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Any failed audit prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"memsnap/internal/sim"
)

// A timed run sets the stack up at least minSetups times, and until the
// set-ups took setupFloor in all, so a quick set-up is sampled often
// enough to steady its median, setup_s.
const (
	minSetups  = 3
	setupFloor = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics in print order, with the sample
// count behind each where there is one.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
	// infos are printed for the reader but are not part of the result.
	infos []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// info records a figure that is printed but not part of the JSON
// result.
func (r *report) info(name, unit string, v float64, note string) {
	r.infos = append(r.infos, fmt.Sprintf("  %-34s %14.4f %-6s %s (info)", name, v, unit, note))
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: kv-read, kv-write or kv-repl")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := flag.String("out-dir", "", "directory for the traced run's span file (empty: not written)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload kv-read|kv-write|kv-repl, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	var books tally
	var err error
	if *trace == 1 {
		rep, books, err = tracedRun(&w, *seed, dur, *outDir)
	} else {
		rep, books, err = timedRun(&w, *seed, dur)
	}
	var audit *auditError
	if err != nil && !errors.As(err, &audit) {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("servebench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("  %-34s %14.4f %-6s %s\n", n, m.Value, m.Unit, rep.notes[n])
	}
	for _, line := range rep.infos {
		fmt.Println(line)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", books.attempted, books.failed)
	if audit != nil {
		fmt.Printf("  AUDIT FAILED: %v\n", audit.err)
	}
	out, jerr := json.Marshal(result{
		Correct:   audit == nil,
		Attempted: books.attempted,
		Failed:    books.failed,
		Metrics:   rep.metrics,
	})
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(out))
	if audit != nil {
		return 1
	}
	return 0
}

// auditError marks a run that completed but failed a correctness
// audit: its metrics are still printed, with correct=false.
type auditError struct{ err error }

func (e *auditError) Error() string { return e.err.Error() }

// timedRun measures the end-to-end metrics with no tracing.
func timedRun(w *workload, seed uint64, dur time.Duration) (*report, tally, error) {
	base := readPools()
	v := newVocab(w.keys)
	zipf := sim.NewZipf(int64(w.keys), w.theta)
	var setups []time.Duration
	var total time.Duration
	var s *stack
	for len(setups) < minSetups || total < setupFloor {
		if s != nil {
			s.close()
			runtime.GC() // the closed stack's garbage is not the next set-up's cost
		}
		start := sinceEpoch()
		var err error
		if s, err = setup(w, v, zipf, seed, stackConfig{net: true}); err != nil {
			return nil, tally{}, err
		}
		setups = append(setups, sinceEpoch()-start)
		total += setups[len(setups)-1]
	}

	runtime.GC()
	disk0 := s.sys.Array().Stats()
	wins, closed, err := s.closedLoop(phaseClosed, dur/2, nil)
	if err != nil {
		s.close()
		return nil, tally{}, err
	}
	diskBytes := s.sys.Array().Stats().BytesWritten - disk0.BytesWritten
	runtime.GC()
	lat, lag, steal, open, err := s.openLoop(dur / 2)
	if err != nil {
		s.close()
		return nil, tally{}, err
	}
	var books tally
	books.add(closed)
	books.add(open)
	s.books.add(books)
	_, auditErr := s.audit()
	auditErr = errors.Join(auditErr, checkPools(base))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, tally{}, err
	}

	rep := newReport()
	rep.set("setup_s", "s", medianDuration(setups).Seconds(), fmt.Sprintf("median of %d set-ups", len(setups)))
	var cpuPerOp []float64
	for _, win := range wins {
		cpuPerOp = append(cpuPerOp, us(win.proc.cpu)/float64(win.ops))
	}
	winNote := fmt.Sprintf("median of %d %v windows, %d ops", len(wins), windowLen, closed.attempted)
	rep.set("ops_per_s", "1/s", opsPerSecond(wins), winNote)
	perWin := int(w.rate * windowLen.Seconds())
	p50, p99, nwin, ok := windowTails(lat, perWin)
	if !ok {
		return nil, tally{}, fmt.Errorf("open loop: %d samples per window cannot support a p99", perWin)
	}
	latNote := fmt.Sprintf("median of %d %v windows of n=%d, at %.0f/s offered", nwin, windowLen, perWin, w.rate)
	rep.set("p50_us", "us", us(p50), latNote)
	rep.info("p99_us", "us", us(p99), latNote+"; not gated, see README")
	rep.info("bench.steal_frac", "ratio", stealFrac(steal), "CPU time the host took during the open loop")
	gl := summarize(lag)
	rep.info("bench.gen_lag_p99_us", "us", us(gl.p99), fmt.Sprintf("n=%d", gl.n))
	rep.set("cpu_us_per_op", "us", median(cpuPerOp), winNote)
	rep.set("ok_frac", "ratio", 1-float64(books.failed)/float64(books.attempted),
		fmt.Sprintf("failed_frac=%.6f (%d of %d)", float64(books.failed)/float64(books.attempted), books.failed, books.attempted))
	if closed.writes == 0 {
		return nil, tally{}, fmt.Errorf("closed loop acknowledged no write")
	}
	rep.set("disk_bytes_per_write", "B", float64(diskBytes)/float64(closed.writes),
		fmt.Sprintf("%d writes", closed.writes))
	rep.set("peak_rss_mb", "MiB", rss, "VmHWM")
	if auditErr != nil {
		return rep, books, &auditError{auditErr}
	}
	return rep, books, nil
}

// spanFile names the traced run's span file inside dir.
func spanFile(dir string, w *workload, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.txt.gz", w.name, seed))
}
