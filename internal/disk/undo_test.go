package disk

// Tests for the whole-page undo path: a write covering exactly one
// aligned page swaps in a fresh page and keeps the displaced one as its
// undo record. Power cuts must tear such writes exactly as the copy
// path (snapshot the old bytes, then overwrite in place) did, and every
// displaced page must return to its pool once its record is dropped.

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// refDevice models the device's store and tear semantics on a flat
// byte array with the copy path: each write snapshots the bytes it
// overwrites, and a power cut rolls records back newest-first, one
// sector at a time, drawing from rng exactly as Device.CutPower does.
type refDevice struct {
	data     []byte
	inflight []refWrite
}

type refWrite struct {
	submit, completion time.Duration
	off                int64
	old                []byte
}

func (r *refDevice) write(at, completion time.Duration, off int64, p []byte) {
	old := append([]byte(nil), r.data[off:off+int64(len(p))]...)
	r.inflight = append(r.inflight, refWrite{submit: at, completion: completion, off: off, old: old})
	copy(r.data[off:], p)
}

func (r *refDevice) cut(at time.Duration, rng *sim.RNG, sector int) {
	for i := len(r.inflight) - 1; i >= 0; i-- {
		w := r.inflight[i]
		if w.completion <= at {
			continue
		}
		for s := 0; s < len(w.old); s += sector {
			if w.submit < at && rng.Float64() < 0.5 {
				continue
			}
			end := min(s+sector, len(w.old))
			copy(r.data[w.off+int64(s):], w.old[s:end])
		}
	}
	r.inflight = nil
}

// storePages counts the pages a device's store holds.
func storePages(d *Device) int64 {
	var n int64
	for _, c := range d.data.dir {
		if c == nil {
			continue
		}
		for _, pg := range c {
			if pg != nil {
				n++
			}
		}
	}
	return n
}

// pooledUndoPages counts in-flight records holding a pagePool page.
func pooledUndoPages(d *Device) int64 {
	var n int64
	for _, w := range d.inflight {
		if w.buf != nil && w.buf != zeroPage && len(w.buf.Data) == pageSize {
			n++
		}
	}
	return n
}

// undoOp is one scripted write: n bytes at off, submitted at at,
// filled with a pattern distinct per op and per sector.
type undoOp struct {
	at  time.Duration
	off int64
	n   int
}

func opData(k int, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(k*37 + i/512 + 1)
	}
	return b
}

func TestWholePageUndoMatchesCopyPath(t *testing.T) {
	const ms = time.Millisecond
	// Every case starts with page 1 written at time 0 (durable long
	// before the scripted writes at 1 ms), then submits its writes 1 µs
	// apart so they queue and are all in flight together.
	cases := []struct {
		name string
		ops  []undoOp
	}{
		{"never_written_page", []undoOp{
			{ms, 0, pageSize},
		}},
		{"overwritten_page", []undoOp{
			{ms, pageSize, pageSize},
		}},
		{"two_inflight_then_sector", []undoOp{
			{ms, 2 * pageSize, pageSize},
			{ms + time.Microsecond, 2 * pageSize, pageSize},
			{ms + 2*time.Microsecond, 2*pageSize + 1024, 512},
		}},
		{"sector_then_whole_page", []undoOp{
			{ms, 3*pageSize + 512, 512},
			{ms + time.Microsecond, 3 * pageSize, pageSize},
		}},
		{"page_sized_but_misaligned", []undoOp{
			{ms, pageSize + 512, pageSize},
		}},
	}
	m := costs()
	const capacity = 16 * pageSize
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops := append([]undoOp{{0, pageSize, pageSize}}, tc.ops...)

			// run replays the script on a fresh device and model, cuts
			// both at cut with the same seed, and compares every sector.
			run := func(cut time.Duration) []time.Duration {
				pages, sectors := pagePool.Stats().InUse(), oldBufSector.Stats().InUse()
				d := NewDevice(m, capacity)
				ref := &refDevice{data: make([]byte, capacity)}
				var events []time.Duration
				for k, op := range ops {
					data := opData(k, op.n)
					done := d.SubmitWrite(op.at, op.off, data)
					ref.write(op.at, done, op.off, data)
					events = append(events, op.at, done)
				}
				if got := d.inflight[1].buf; tc.name == "never_written_page" && got != zeroPage {
					t.Fatalf("never-written page's undo record is %p, want the zero page", got)
				}
				d.CutPower(cut, sim.NewRNG(uint64(cut)))
				ref.cut(cut, sim.NewRNG(uint64(cut)), m.DiskSectorSize)

				got := make([]byte, capacity)
				d.PeekAt(0, got)
				for s := 0; s < capacity; s += m.DiskSectorSize {
					if !bytes.Equal(got[s:s+m.DiskSectorSize], ref.data[s:s+m.DiskSectorSize]) {
						t.Fatalf("cut at %v: sector at %d differs from the copy-path model", cut, s)
					}
				}
				if len(d.inflight) != 0 {
					t.Fatalf("cut at %v left %d in-flight records", cut, len(d.inflight))
				}
				if held := pagePool.Stats().InUse() - pages; held != storePages(d) {
					t.Fatalf("cut at %v: %d pages out of the pool, store holds %d", cut, held, storePages(d))
				}
				if held := oldBufSector.Stats().InUse() - sectors; held != 0 {
					t.Fatalf("cut at %v: %d sector undo buffers not released", cut, held)
				}
				return events
			}

			// Cut before, at and just after every submission and
			// completion, and midway between consecutive ones.
			events := run(0)
			sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
			var cuts []time.Duration
			for i, e := range events {
				cuts = append(cuts, e-1, e, e+1)
				if i > 0 {
					cuts = append(cuts, (events[i-1]+e)/2)
				}
			}
			cuts = append(cuts, events[len(events)-1]+time.Second)
			for _, cut := range cuts {
				if cut >= 0 {
					run(cut)
				}
			}
		})
	}
}

func TestDisplacedPagesReturnToPool(t *testing.T) {
	m := costs()
	base := pagePool.Stats().InUse()
	d := NewDevice(m, 16*pageSize)
	const writes = 200
	var at time.Duration
	for i := 0; i < writes; i++ {
		// 1 ms apart: each write completes before the next is
		// submitted, so the GC can drop every earlier record.
		at = time.Duration(i) * time.Millisecond
		d.SubmitWrite(at, int64(i%4)*pageSize, opData(i, pageSize))
		if i == 0 && d.inflight[0].buf != zeroPage {
			t.Fatal("first write to a never-written page did not take the whole-page path")
		}
	}
	if d.GCFloor() == 0 || len(d.inflight) >= writes {
		t.Fatalf("GC never dropped a record (floor %v, %d records)", d.GCFloor(), len(d.inflight))
	}
	if held, want := pagePool.Stats().InUse()-base, storePages(d)+pooledUndoPages(d); held != want {
		t.Fatalf("after GC: %d pages out of the pool, store and in-flight records hold %d", held, want)
	}
	d.CutPower(at+time.Second, sim.NewRNG(1))
	if held, want := pagePool.Stats().InUse()-base, storePages(d); held != want || want != 4 {
		t.Fatalf("after CutPower: %d pages out of the pool, store holds %d (want 4)", held, want)
	}
	got := make([]byte, pageSize)
	for p := 0; p < 4; p++ {
		d.PeekAt(int64(p)*pageSize, got)
		if !bytes.Equal(got, opData(writes-4+p, pageSize)) {
			t.Fatalf("page %d does not hold its last durable write", p)
		}
	}
}
