package main

import (
	"testing"
	"time"

	"memsnap/internal/sim"
)

func firstOps(w *workload, seed uint64, n int) []op {
	st := newStream(w, sim.NewZipf(int64(w.keys), w.theta), seed, phaseClosed, 3)
	out := make([]op, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

func TestStreamFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := firstOps(&w, 7, 1000), firstOps(&w, 7, 1000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: seed 7 op %d differs between two streams: %+v vs %+v", w.name, i, a[i], b[i])
			}
		}
		c := firstOps(&w, 8, 1000)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	cases := []struct {
		n      int
		q      float64
		want   time.Duration
		enough bool
	}{
		{n: 1, q: 0.5, want: 1, enough: false},
		{n: 4, q: 0.5, want: 2, enough: false},
		{n: 100, q: 0.5, want: 50, enough: true},
		{n: 100, q: 0.99, want: 99, enough: false},
		{n: 1000, q: 0.99, want: 990, enough: true},
		{n: 1009, q: 0.99, want: 999, enough: true},
		{n: 999, q: 0.99, want: 990, enough: false},
	}
	for _, c := range cases {
		got, enough := quantile(seq(c.n), c.q)
		if got != c.want || enough != c.enough {
			t.Errorf("quantile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, enough, c.want, c.enough)
		}
	}
	if _, enough := quantile(nil, 0.5); enough {
		t.Error("quantile of no samples reported enough samples")
	}
	tl := summarize([]time.Duration{5, 1, 4, 2, 3})
	if tl.n != 5 || tl.p50 != 3 || tl.p99 != 5 || tl.p99OK {
		t.Errorf("summarize(5,1,4,2,3) = %+v", tl)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

// TestAuditsCatchWrongSum runs a small stack of each kind, checks the
// sum audit against the real service with the true books and with
// deliberately wrong ones, then runs the full end-of-run audits.
func TestAuditsCatchWrongSum(t *testing.T) {
	base := readPools()
	for _, w := range []workload{
		{name: "small-write", keys: 200, theta: 0.5, rate: 1000},
		{name: "small-repl", keys: 200, theta: 0.5, rate: 1000, repl: true},
	} {
		for _, net := range []bool{false, true} {
			v := newVocab(w.keys)
			s, err := setup(&w, v, sim.NewZipf(int64(w.keys), w.theta), 1, stackConfig{net: net})
			if err != nil {
				t.Fatalf("%s net=%v: %v", w.name, net, err)
			}
			var books tally
			s.run(phaseClosed, &runLimits{budget: 500}, nil, &books)
			s.books.add(books)
			if books.failed != 0 || books.writes == 0 {
				t.Fatalf("%s net=%v: %+v", w.name, net, books)
			}
			sum, err := s.svc.TotalValueSum()
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSum(sum, s.loaded, s.books); err != nil {
				t.Errorf("%s net=%v: true books failed the audit: %v", w.name, net, err)
			}
			short, long := s.books, s.books
			short.acked--
			long.acked++
			if checkSum(sum, s.loaded, short) == nil || checkSum(sum, s.loaded, long) == nil {
				t.Errorf("%s net=%v: the sum audit passed a wrong expected sum", w.name, net)
			}
			unsure := s.books
			unsure.acked -= 3
			unsure.uncertain = 3
			if err := checkSum(sum, s.loaded, unsure); err != nil {
				t.Errorf("%s net=%v: deltas of unknown outcome not allowed for: %v", w.name, net, err)
			}
			if _, err := s.audit(); err != nil {
				t.Errorf("%s net=%v: %v", w.name, net, err)
			}
		}
	}
	if err := checkPools(base); err != nil {
		t.Error(err)
	}
}
