package core

import (
	"sync"
	"testing"

	"memsnap/internal/vm"
)

// TestPersistErrorPathReleasesHold is the regression test for the
// checkpoint-in-progress leak: when Persist fails because a dirty page
// belongs to a mapping that is not a region, the hold taken by
// MarkCheckpointPages must be released (flags cleared, buffer
// recycled), not abandoned.
func TestPersistErrorPathReleasesHold(t *testing.T) {
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// A tracked mapping outside any region: its dirty pages cannot be
	// committed anywhere.
	foreign := &vm.Mapping{Name: "foreign", Start: 1 << 40, Pages: 4, Tracked: true}
	if err := p.as.Map(foreign); err != nil {
		t.Fatal(err)
	}
	ctx.th.Write(foreign.Start, []byte("x"))
	ctx.WriteAt(r, 0, []byte("y"))

	if _, err := ctx.Persist(nil, MSSync); err == nil {
		t.Fatal("Persist succeeded with a dirty non-region mapping")
	}
	if got := len(ctx.pending); got != 0 {
		t.Fatalf("failed Persist left %d pending checkpoints", got)
	}
	if got := len(ctx.holdFree); got != 1 {
		t.Fatalf("failed Persist recycled %d hold buffers, want 1 (hold leaked)", got)
	}

	// The context still persists normally afterwards, and the recycled
	// hold buffer is reused rather than grown.
	ctx.WriteAt(r, 0, []byte("z"))
	if _, err := ctx.Persist(r, MSSync); err != nil {
		t.Fatalf("Persist after recovered error: %v", err)
	}
	if got := len(ctx.holdFree); got != 1 {
		t.Fatalf("hold free list = %d buffers after clean persist, want 1", got)
	}
}

// TestPersistSteadyStateZeroAlloc pins the tentpole criterion: once
// pools and scratch buffers are warm, a Persist of a fixed dirty set
// performs zero heap allocations per call.
func TestPersistSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	op := func() {
		for i := int64(0); i < 8; i++ {
			pg := ctx.PageForWrite(r, i*PageSize)
			pg[0]++
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		op() // warm pools, map buckets, scratch capacities
	}
	if got := testing.AllocsPerRun(200, op); got > 0 {
		t.Fatalf("steady-state Persist allocates %.1f times per call, want 0", got)
	}
}

// TestCapturePoolNoLeak drives the capture pipeline end to end and
// checks every pooled page and slice returns: the pool's in-use count
// is unchanged after all captured commits are released.
func TestCapturePoolNoLeak(t *testing.T) {
	pages0, slices0 := CapturePoolStats()
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx.CaptureCommits(true)
	for round := 0; round < 50; round++ {
		for i := int64(0); i < 8; i++ {
			pg := ctx.PageForWrite(r, i*PageSize)
			pg[0]++
		}
		if _, err := ctx.Persist(r, MSSync); err != nil {
			t.Fatal(err)
		}
		for _, cc := range ctx.TakeCaptured() {
			if len(cc.Pages) != 8 {
				t.Fatalf("captured %d pages, want 8", len(cc.Pages))
			}
			cc.Release()
		}
	}
	// Drain the double buffer's other half too.
	ctx.CaptureCommits(false)
	ctx.Wait(nil, 0)
	pages1, slices1 := CapturePoolStats()
	if pages1.InUse() != pages0.InUse() {
		t.Fatalf("capture page pool leaked: in-use %d -> %d", pages0.InUse(), pages1.InUse())
	}
	if slices1.InUse() != slices0.InUse() {
		t.Fatalf("captured-pages slice pool leaked: in-use %d -> %d", slices0.InUse(), slices1.InUse())
	}
	if pages1.Gets == pages0.Gets {
		t.Fatal("capture page pool was never exercised")
	}
}

// TestPersistGlobalConcurrentStress hammers MSGlobal persists from a
// dedicated context while other contexts dirty and persist their own
// regions — the interleaving the scratch-buffer reuse and hold
// machinery must survive. Run with -race in CI.
func TestPersistGlobalConcurrentStress(t *testing.T) {
	const writers = 3
	sys, err := NewSystem(Options{CPUs: writers + 1})
	if err != nil {
		t.Fatal(err)
	}
	p := sys.NewProcess()
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)

	regions := make([]*Region, writers)
	ctxs := make([]*Context, writers)
	for w := 0; w < writers; w++ {
		ctxs[w] = p.NewContext(w)
		r, err := p.Open(ctxs[w], "data"+string(rune('0'+w)), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		regions[w] = r
	}
	gctx := p.NewContext(writers)

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, r := ctxs[w], regions[w]
			for i := 0; i < 150; i++ {
				for pg := int64(0); pg < 4; pg++ {
					b := ctx.PageForWrite(r, pg*PageSize)
					b[i%PageSize]++
				}
				flags := MSSync
				if i%3 == 0 {
					flags = MSAsync
				}
				if _, err := ctx.Persist(r, flags); err != nil {
					errs <- err
					return
				}
			}
			ctx.Wait(nil, 0)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := gctx.Persist(nil, MSGlobal|MSSync); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := gctx.OutstandingCheckpoints(); n != 0 {
		t.Fatalf("global context left %d outstanding checkpoints", n)
	}
}

// TestCOWDisplacedFramesFreed is the regression test for the physical
// frame leak: a write to a page whose uCheckpoint is still in flight
// copies the page, and the displaced frame loses its last mapping.
// Once the checkpoint is durable nothing references that frame, so it
// must go back to the allocator. Without the free, every persist cycle
// below grows physical memory by `pages` frames.
func TestCOWDisplacedFramesFreed(t *testing.T) {
	const pages, cycles = 8, 200
	sys := newSys(t)
	p := sys.NewProcess()
	ctx := p.NewContext(0)
	r, err := p.Open(ctx, "data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	write := func(round int) {
		for i := int64(0); i < pages; i++ {
			ctx.WriteAt(r, i*PageSize, []byte{byte(round), byte(i)})
		}
	}
	write(0)
	for round := 1; round <= cycles; round++ {
		epoch, err := ctx.Persist(r, MSAsync)
		if err != nil {
			t.Fatal(err)
		}
		write(round) // every page's checkpoint is in flight: all COW
		if round%2 == 0 {
			ctx.Wait(r, epoch) // release through Wait ...
		} // ... or through the next Persist's sweep
	}
	ctx.Wait(nil, 0)
	if got, want := p.as.Stats().COWFaults, int64(pages*cycles); got != want {
		t.Fatalf("COW faults = %d, want %d (test no longer exercises the in-flight path)", got, want)
	}
	st := sys.phys.Stats()
	if live := st.TotalFrames - st.FreeFrames; live > pages {
		t.Fatalf("%d live frames after %d cycles over %d pages, want <= %d", live, cycles, pages, pages)
	}
	if st.TotalFrames > 3*pages {
		t.Fatalf("physical memory grew to %d frames over %d pages (displaced COW frames never freed)", st.TotalFrames, pages)
	}
	buf := make([]byte, 2)
	for i := int64(0); i < pages; i++ {
		ctx.ReadAt(r, i*PageSize, buf)
		if buf[0] != byte(cycles) || buf[1] != byte(i) {
			t.Fatalf("page %d reads %v, want [%d %d]", i, buf, byte(cycles), i)
		}
	}
}
