package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"memsnap/internal/core"
	"memsnap/internal/netsvc"
	"memsnap/internal/obs"
	"memsnap/internal/proto"
	"memsnap/internal/replica"
	"memsnap/internal/shard"
	"memsnap/internal/sim"
)

// sysOpts sizes every simulated machine the benchmark builds, as
// msnap-load -spawn does: one simulated CPU per shard worker.
var sysOpts = core.Options{CPUs: shards, DiskBytesEach: 512 << 20}

// warmupOps is the closed-loop op count that ends set-up: it fills the
// server's intern tables and pools before anything is timed.
const warmupOps = 4_000

// stackConfig selects how a stack is built.
type stackConfig struct {
	// net serves the service on loopback TCP and dials the clients;
	// otherwise requests go straight into shard.Service.
	net bool
	// traceShip wraps the replicator in a shipTracer (kv-repl only).
	traceShip bool
	// rec is handed to shard.Config.Recorder (calibration stacks only).
	rec *obs.Recorder
}

// stack is one live serving stack: the same pieces msnap-load -spawn
// builds, plus a follower for replicated workloads, and the books the
// sum audit checks.
type stack struct {
	w    *workload
	v    *vocab
	zipf *sim.Zipf
	seed uint64

	sys    *core.System
	svc    *shard.Service
	srv    *netsvc.Server
	cls    []*netsvc.Client
	fol    *replica.Follower
	ship   *replica.Shipper
	tracer *shipTracer

	// free0 is the object store's free block count right after format.
	free0 int64
	// loaded is the value sum the bulk load wrote; books holds every
	// Add issued since (acknowledged, or of unknown outcome).
	loaded uint64
	books  tally
}

// setup formats a machine, opens the service (and follower), bulk
// loads the whole key set, serves and dials when cfg.net, and warms up.
func setup(w *workload, v *vocab, zipf *sim.Zipf, seed uint64, cfg stackConfig) (*stack, error) {
	s := &stack{w: w, v: v, zipf: zipf, seed: seed}
	var err error
	if s.sys, err = core.NewSystem(sysOpts); err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	s.free0 = s.sys.Store().FreeBlocks()
	scfg := shard.Config{Shards: shards, Recorder: cfg.rec}
	if w.repl {
		folSys, err := core.NewSystem(sysOpts)
		if err != nil {
			return nil, fmt.Errorf("format follower: %w", err)
		}
		if s.fol, err = replica.NewFollower(folSys, replica.FollowerConfig{Shards: shards}); err != nil {
			return nil, fmt.Errorf("open follower: %w", err)
		}
		link := replica.NewLink(replica.LinkConfig{Seed: seed})
		s.ship = replica.NewShipper(link, s.fol, shards, replica.Config{Mode: replica.Sync})
		scfg.Replicator = s.ship
		if cfg.traceShip {
			s.tracer = &shipTracer{inner: s.ship}
			scfg.Replicator = s.tracer
		}
	}
	if s.svc, err = shard.New(s.sys, scfg); err != nil {
		s.close()
		return nil, fmt.Errorf("open service: %w", err)
	}
	if s.ship != nil {
		s.ship.Attach(s.svc)
	}
	if err := s.bulkLoad(); err != nil {
		s.close()
		return nil, err
	}
	if cfg.net {
		if err := s.serve(); err != nil {
			s.close()
			return nil, err
		}
	}
	var warm tally
	s.run(phaseWarmup, &runLimits{budget: warmupOps}, nil, &warm)
	s.books.add(warm)
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	return s, nil
}

// loaders is the bulk load's in-flight Puts: enough per shard to fill
// every group commit.
const loaders = 16 * shards

// bulkLoad Puts every tenant's whole key set straight into the service.
func (s *stack) bulkLoad() error {
	total := tenants * s.w.keys
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += loaders {
				t, k := i/s.w.keys, i%s.w.keys
				if err := s.svc.Put(s.v.tenantS[t], s.v.keyS[k], loadValue(t, k)); err != nil {
					errs[g] = fmt.Errorf("bulk load %s/%s: %w", s.v.tenantS[t], s.v.keyS[k], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i := 0; i < total; i++ {
		s.loaded += loadValue(i/s.w.keys, i%s.w.keys)
	}
	return nil
}

// serve starts the TCP front end on loopback and dials the clients.
func (s *stack) serve() error {
	var err error
	if s.srv, err = netsvc.Serve("127.0.0.1:0", s.svc, netsvc.Config{MaxInFlight: depth}); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for i := 0; i < conns; i++ {
		c, err := netsvc.Dial(s.srv.Addr(), depth)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		s.cls = append(s.cls, c)
	}
	return nil
}

// exec runs one op from worker w and books its outcome. Over TCP the
// client resends RETRY_AFTER itself (counted by Client.Retries); any
// error or non-OK status is a failure, and a failed Add's delta is of
// unknown outcome.
func (s *stack) exec(w int, o op, q *proto.Request, ch chan shard.Response, t *tally) {
	ok := false
	if s.srv != nil {
		s.v.request(o, q)
		p, err := s.cls[w/depth].Do(q)
		ok = err == nil && p.Status == proto.StatusOK
	} else {
		sop := shard.Op{Kind: shard.OpGet, Tenant: s.v.tenantS[o.tenant], Key: s.v.keyS[o.key]}
		if !o.get {
			sop.Kind, sop.Value = shard.OpAdd, o.delta
		}
		if err := s.svc.DoTagged(sop, 0, ch); err == nil {
			ok = (<-ch).Err == nil
		}
	}
	t.book(o, ok)
}

// tally counts one worker's (or one phase's) outcomes.
type tally struct {
	attempted, failed int64
	writes            int64
	acked, uncertain  uint64
}

func (t *tally) book(o op, ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
	if o.get {
		return
	}
	if ok {
		t.writes++
		t.acked += o.delta
	} else {
		t.uncertain += o.delta
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.writes += o.writes
	t.acked += o.acked
	t.uncertain += o.uncertain
}

// closeClients closes the clients and drains the server.
func (s *stack) closeClients() error {
	for _, c := range s.cls {
		c.Close()
	}
	s.cls = nil
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv = nil
	if err != nil {
		return fmt.Errorf("drain server: %w", err)
	}
	return nil
}

// close tears the stack down without auditing it.
func (s *stack) close() {
	s.closeClients()
	if s.svc != nil {
		s.svc.Close()
	}
	if s.ship != nil {
		s.ship.Close()
	}
}

// checkSum is the sum audit: the service's value sum must equal the
// loaded sum plus every acknowledged delta, give or take only the
// deltas whose outcome is unknown (which may or may not have applied).
func checkSum(got, loaded uint64, books tally) error {
	want := loaded + books.acked
	if extra := got - want; extra > books.uncertain {
		return fmt.Errorf("sum audit: service holds %d, want %d (+ up to %d of unknown outcome)",
			got, want, books.uncertain)
	}
	return nil
}

// audit drains the stack and runs every correctness audit: the sum
// audit, follower convergence (replicated workloads), and a power cut
// at the last durable instant followed by recovery, after which every
// shard must be consistent and the value sum unchanged. It returns how
// long core.Recover plus the service reopen took.
func (s *stack) audit() (time.Duration, error) {
	if err := s.closeClients(); err != nil {
		s.close()
		return 0, err
	}
	var errs []error
	if s.ship != nil {
		s.ship.Flush()
		errs = append(errs, s.checkFollower())
	}
	sum, err := s.svc.TotalValueSum()
	if err != nil {
		s.close()
		return 0, fmt.Errorf("sum audit: %w", err)
	}
	errs = append(errs, checkSum(sum, s.loaded, s.books))
	if err := s.svc.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close service: %w", err))
	}
	if s.ship != nil {
		if err := s.ship.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close shipper: %w", err))
		}
	}

	cutAt := s.svc.TotalStats().LastCommitDurable
	s.sys.Array().CutPower(cutAt, sim.NewRNG(s.seed))
	start := sinceEpoch()
	sys2, doneAt, err := core.Recover(sysOpts, s.sys.Array(), cutAt)
	if err != nil {
		return 0, errors.Join(append(errs, fmt.Errorf("crash audit: recover: %w", err))...)
	}
	svc2, err := shard.New(sys2, shard.Config{Shards: shards, StartAt: doneAt})
	if err != nil {
		return 0, errors.Join(append(errs, fmt.Errorf("crash audit: reopen: %w", err))...)
	}
	recovered := sinceEpoch() - start
	for _, r := range svc2.Recovery() {
		if !r.Existing || !r.Consistent() {
			errs = append(errs, fmt.Errorf("crash audit: shard %d recovered existing=%v records %d/%d sum %d/%d",
				r.Shard, r.Existing, r.Records, r.ScanRecords, r.ValueSum, r.ScanSum))
		}
	}
	if got, err := svc2.TotalValueSum(); err != nil {
		errs = append(errs, fmt.Errorf("crash audit: %w", err))
	} else if got != sum {
		errs = append(errs, fmt.Errorf("crash audit: recovered sum %d, %d before the cut", got, sum))
	}
	if err := svc2.Close(); err != nil {
		errs = append(errs, fmt.Errorf("crash audit: close: %w", err))
	}
	return recovered, errors.Join(errs...)
}

// checkFollower compares the follower's regions with the primary's.
func (s *stack) checkFollower() error {
	pd, err := s.svc.ShardDigests()
	if err != nil {
		return fmt.Errorf("follower audit: %w", err)
	}
	ps, err := s.svc.ShardSums()
	if err != nil {
		return fmt.Errorf("follower audit: %w", err)
	}
	fd, fs := s.fol.Digests(), s.fol.Sums()
	for i := range pd {
		if fd[i] != pd[i] || fs[i] != ps[i] {
			return fmt.Errorf("follower audit: shard %d digest %#x sum %d, primary %#x sum %d",
				i, fd[i], fs[i], pd[i], ps[i])
		}
	}
	return nil
}

// poolBase is the capture pools' in-use level at process start; the
// pool audit checks every pool is back to it once all stacks closed.
type poolBase struct{ pages, slices, extents, enc int64 }

func readPools() poolBase {
	pages, slices := core.CapturePoolStats()
	return poolBase{
		pages:   pages.InUse(),
		slices:  slices.InUse(),
		extents: core.CaptureExtentStats().InUse(),
		enc:     replica.EncPoolStats().InUse(),
	}
}

func checkPools(base poolBase) error {
	if now := readPools(); now != base {
		return fmt.Errorf("pool audit: in use after close %+v, at start %+v", now, base)
	}
	return nil
}
