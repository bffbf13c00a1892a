package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

// epoch anchors every span the benchmark records.
var epoch = time.Now() //lint:allow walltime the benchmark measures the real serving stack

func sinceEpoch() time.Duration {
	return time.Since(epoch) //lint:allow walltime the benchmark measures the real serving stack
}

// runLimits stops a closed loop: after budget issued ops (0: no
// budget), or once stop is set. done counts completed ops so the
// caller can cut the run into windows.
type runLimits struct {
	budget int64
	issued atomic.Int64
	done   atomic.Int64
	stop   atomic.Bool
}

// run drives the closed loop: each worker sends its next op as soon as
// the previous one completed, so in-flight requests stay at the load
// shape's depth. Each worker draws its own stream of the given phase.
// With spans set, every op is timed into spans.per[worker].
func (s *stack) run(phase uint64, lim *runLimits, spans *spanLog, t *tally) {
	per := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := newStream(s.w, s.zipf, s.seed, phase, uint64(w))
			var q proto.Request
			ch := make(chan shard.Response, 1)
			for !lim.stop.Load() {
				n := lim.issued.Add(1)
				if lim.budget > 0 && n > lim.budget {
					return
				}
				o := st.next()
				if spans == nil {
					s.exec(w, o, &q, ch, &per[w])
				} else {
					start := sinceEpoch()
					s.exec(w, o, &q, ch, &per[w])
					spans.per[w] = append(spans.per[w], span{id: uint64(w)<<40 | uint64(n), start: start, end: sinceEpoch()})
				}
				lim.done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range per {
		t.add(p)
	}
}

// windowLen is the closed loop's measuring window: throughput and CPU
// per op are reported as the median over windows, so one window that a
// neighbour on the machine disturbed does not move the result.
const windowLen = time.Second

type window struct {
	elapsed time.Duration
	ops     int64
	proc    procCounters
}

// closedLoop runs the closed loop for about dur and returns its
// windows and its outcomes.
func (s *stack) closedLoop(phase uint64, dur time.Duration, spans *spanLog) ([]window, tally, error) {
	var lim runLimits
	var t tally
	finished := make(chan struct{})
	go func() {
		s.run(phase, &lim, spans, &t)
		close(finished)
	}()
	var wins []window
	prev, err := readProc()
	prevAt, prevOps := sinceEpoch(), int64(0)
	for n := max(1, int(dur/windowLen)); err == nil && len(wins) < n; {
		time.Sleep(windowLen) //lint:allow walltime the closed loop is cut into real-time windows
		var cur procCounters
		if cur, err = readProc(); err != nil {
			break
		}
		at, ops := sinceEpoch(), lim.done.Load()
		wins = append(wins, window{elapsed: at - prevAt, ops: ops - prevOps, proc: cur.sub(prev)})
		prev, prevAt, prevOps = cur, at, ops
	}
	lim.stop.Store(true)
	<-finished
	return wins, t, err
}

// openLoop offers the workload's fixed rate for dur. One pacer sends
// request i when it falls due, whether or not earlier ones completed;
// each request's latency is measured from its due time, so a stall is
// charged to every request queued behind it, and lag records how late
// the pacer itself dispatched each one.
//
// A sampler reads the machine's stolen CPU time at every window
// boundary of windowLen; steal[k] is what window k lost.
func (s *stack) openLoop(dur time.Duration) (lat, lag, steal []time.Duration, t tally, err error) {
	n := int(s.w.rate * dur.Seconds())
	lat = make([]time.Duration, n)
	lag = make([]time.Duration, n)
	type job struct {
		i   int
		o   op
		due time.Duration
	}
	// The buffer lets the pacer run ahead of workers that are all busy
	// during a stall; once it is full the pacer blocks, and its lag
	// (not lost requests) shows the stall.
	jobs := make(chan job, 4096)
	per := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var q proto.Request
			ch := make(chan shard.Response, 1)
			for j := range jobs {
				s.exec(w, j.o, &q, ch, &per[w])
				lat[j.i] = sinceEpoch() - j.due
			}
		}(w)
	}
	st := newStream(s.w, s.zipf, s.seed, phaseOpen, 0)
	interval := float64(time.Second) / s.w.rate
	start := sinceEpoch() + windowLen/10
	nwin := max(1, int(dur/windowLen))
	marks := make([]time.Duration, nwin+1)
	var merr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := range marks {
			if d := start + time.Duration(k)*windowLen - sinceEpoch(); d > 0 {
				time.Sleep(d) //lint:allow walltime steal is sampled on the open loop's window boundaries
			}
			if marks[k], merr = readSteal(); merr != nil {
				return
			}
		}
	}()
	// The pacer runs on a thread of its own (see pacedThread), which the
	// runtime discards when the goroutine ends still locked to it.
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pacedThread()
		for i := 0; i < n; i++ {
			o := st.next()
			due := start + time.Duration(float64(i)*interval)
			lag[i] = waitUntil(due) - due
			jobs <- job{i: i, o: o, due: due}
		}
	}()
	<-paced
	close(jobs)
	wg.Wait()
	<-sampled
	for _, p := range per {
		t.add(p)
	}
	for k := 0; k < nwin; k++ {
		steal = append(steal, marks[k+1]-marks[k])
	}
	return lat, lag, steal, t, merr
}

// waitUntil returns once due has passed. Go's timers overshoot
// sub-millisecond sleeps by up to a millisecond when the process is
// idle, more than the latencies measured, so the pacer sleeps in
// nanosleep on its own thread, whose timer slack pacedThread removed.
// A goroutine asleep in a syscall keeps its processor until the
// runtime's monitor takes it back, which can take milliseconds, so the
// pacer first yields: the worker it just woke, and anything else queued
// behind it, runs before the pacer sleeps.
func waitUntil(due time.Duration) time.Duration {
	runtime.Gosched()
	for {
		now := sinceEpoch()
		d := due - now
		if d <= 0 {
			return now
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}

// pacedThread locks the calling goroutine to its thread for good and
// sets that thread's timer slack to 1ns, so nanosleep wakes within
// microseconds of its deadline instead of the default 50µs later.
func pacedThread() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Best effort: with the default slack the pacer is only later.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}
