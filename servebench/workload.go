package main

import (
	"fmt"

	"memsnap/internal/proto"
	"memsnap/internal/sim"
)

// Load shape shared by every workload: two pipelined client
// connections (one per core of a two-core machine) of sixteen in-flight
// requests each, against the shard service's default eight shards.
const (
	conns    = 2
	depth    = 16
	workers  = conns * depth
	shards   = 8
	tenants  = 4
	maxDelta = 8
)

// workload is one named traffic mix. The names are stable: later
// changes cite them when they claim or rule out a gain.
type workload struct {
	name string
	// keys per tenant, drawn with zipf skew theta.
	keys  int
	theta float64
	// getPct is the share of Gets; the rest are Adds of 1..maxDelta.
	getPct int
	// rate is the open-loop offered load in ops/s: about half the
	// highest rate the open loop sustains on a two-core machine, which
	// is well below the closed-loop capacity because requests arriving
	// one at a time share no syscalls.
	rate float64
	// repl ships every group commit synchronously to a follower.
	repl bool
}

var workloads = []workload{
	// netsvc/proto dominate; the zipf-0.99 hot set is small, so
	// Persist barely runs.
	{name: "kv-read", keys: 10_000, theta: 0.99, getPct: 95, rate: 15_000},
	// Same wire path as kv-read, but every op is a durable write
	// spread over many slot pages: group commit, Persist, objstore and
	// disk carry the shard-side cost.
	{name: "kv-write", keys: 50_000, theta: 0.5, getPct: 0, rate: 10_000},
	// kv-write's traffic plus synchronous replication: the difference
	// between the two is the replica layer.
	{name: "kv-repl", keys: 50_000, theta: 0.5, getPct: 0, rate: 5_000, repl: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated request: indexes into the key vocabulary, so
// the same op drives the wire client and the in-process service.
type op struct {
	get    bool
	tenant int
	key    int
	delta  uint64
}

// vocab holds every tenant and key name in both the wire ([]byte)
// and the in-process (string) form, built once before any timing.
type vocab struct {
	tenantB [][]byte
	tenantS []string
	keyB    [][]byte
	keyS    []string
}

func newVocab(keys int) *vocab {
	v := &vocab{}
	for t := 0; t < tenants; t++ {
		s := fmt.Sprintf("t%02d", t)
		v.tenantS = append(v.tenantS, s)
		v.tenantB = append(v.tenantB, []byte(s))
	}
	for k := 0; k < keys; k++ {
		s := fmt.Sprintf("k%07d", k)
		v.keyS = append(v.keyS, s)
		v.keyB = append(v.keyB, []byte(s))
	}
	return v
}

// request fills q with o's wire form. q's ID is left to the client.
func (v *vocab) request(o op, q *proto.Request) {
	*q = proto.Request{Tenant: v.tenantB[o.tenant], Key: v.keyB[o.key]}
	if o.get {
		q.Kind = proto.KindGet
	} else {
		q.Kind = proto.KindAdd
		q.Value = o.delta
	}
}

// loadValue is the value the bulk load gives tenant t's key k.
func loadValue(t, k int) uint64 { return uint64(1000 + (t*7919+k)%997) }

// Stream phases: each names an independent slice of the seed's request
// stream, so the warm-up, closed loop, open loop and traced passes
// never replay each other's requests.
const (
	phaseWarmup uint64 = iota + 1
	phaseClosed
	phaseOpen
	phaseTraced
)

// stream is one deterministic request sequence: the seed, phase and
// lane (a closed-loop worker, or 0 for the open-loop pacer) fix every
// request it yields.
type stream struct {
	w    *workload
	rng  *sim.RNG
	zipf *sim.Zipf
}

func newStream(w *workload, zipf *sim.Zipf, seed, phase, lane uint64) *stream {
	mix := seed*0x9e3779b97f4a7c15 ^ phase<<40 ^ lane
	return &stream{w: w, rng: sim.NewRNG(mix), zipf: zipf}
}

func (s *stream) next() op {
	o := op{tenant: s.rng.Intn(tenants), key: int(s.zipf.Next(s.rng))}
	if s.rng.Intn(100) < s.w.getPct {
		o.get = true
	} else {
		o.delta = uint64(1 + s.rng.Intn(maxDelta))
	}
	return o
}
