package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (the smallest
// sample with at least q of all samples at or below it), and whether
// at least minBeyond samples lie strictly above that rank.
func quantile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// tail is a latency distribution summarised exactly from its samples.
type tail struct {
	n        int
	p50, p99 time.Duration
	p99OK    bool
}

func summarize(samples []time.Duration) tail {
	slices.Sort(samples)
	t := tail{n: len(samples)}
	t.p50, _ = quantile(samples, 0.50)
	t.p99, t.p99OK = quantile(samples, 0.99)
	return t
}

// windowTails cuts a latency series into consecutive windows of per
// samples each (one window, if the series is shorter) and returns the
// median over windows of each window's exact p50 and p99. ok is false
// when a window cannot support its p99.
func windowTails(samples []time.Duration, per int) (p50, p99 time.Duration, windows int, ok bool) {
	per = min(per, len(samples))
	if per == 0 {
		return 0, 0, 0, false
	}
	var p50s, p99s []time.Duration
	ok = true
	for lo := 0; lo+per <= len(samples); lo += per {
		t := summarize(slices.Clone(samples[lo : lo+per]))
		p50s = append(p50s, t.p50)
		p99s = append(p99s, t.p99)
		ok = ok && t.p99OK
	}
	return medianDuration(p50s), medianDuration(p99s), len(p50s), ok
}

// stealFrac is the share of the machine's CPU time the host took over
// the given windows.
func stealFrac(steal []time.Duration) float64 {
	var total time.Duration
	for _, st := range steal {
		total += st
	}
	return float64(total) / (float64(windowLen) * float64(len(steal)) * float64(runtime.NumCPU()))
}

// userHZ is the tick rate of /proc/stat's CPU times on Linux.
const userHZ = 100

// readSteal returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs ("steal" in /proc/stat), over all CPUs.
func readSteal() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no steal field")
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat: %w", err)
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(xs []time.Duration) time.Duration {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return time.Duration(median(f))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procCounters is one reading of the process counters the kernel and
// the Go runtime keep: read and write syscalls (/proc/self/io), CPU
// time and context switches (getrusage), and heap allocations and GC
// cycles (runtime/metrics). None of them needs the program's help.
type procCounters struct {
	syscr, syscw int64
	cpu          time.Duration
	ctxSwitches  int64
	allocs       uint64
	gcs          uint64
}

func readProc() (procCounters, error) {
	var c procCounters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.ctxSwitches = ru.Nvcsw + ru.Nivcsw
	io, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c, err
	}
	if c.syscr, err = procField(io, "syscr:"); err != nil {
		return c, err
	}
	if c.syscw, err = procField(io, "syscw:"); err != nil {
		return c, err
	}
	rt := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rt)
	c.allocs, c.gcs = rt[0].Value.Uint64(), rt[1].Value.Uint64()
	return c, nil
}

func (c procCounters) sub(o procCounters) procCounters {
	return procCounters{
		syscr:       c.syscr - o.syscr,
		syscw:       c.syscw - o.syscw,
		cpu:         c.cpu - o.cpu,
		ctxSwitches: c.ctxSwitches - o.ctxSwitches,
		allocs:      c.allocs - o.allocs,
		gcs:         c.gcs - o.gcs,
	}
}

// procField returns the integer after key in a /proc "key: value" file.
func procField(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == key {
			return strconv.ParseInt(string(f[1]), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc: no %q field", key)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := procField(status, "VmHWM:")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
