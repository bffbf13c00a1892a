// Package disk simulates the storage hardware of the paper's testbed:
// low-latency PCIe SSDs (Intel 900P class) striped pairwise in 64 KiB
// blocks.
//
// The device model is a single-server FIFO queue per SSD: an IO
// submitted at virtual time t starts at max(t, queue drain time) and
// costs a fixed per-command base latency plus a per-byte transfer
// cost. The base/transfer constants are calibrated against the direct
// disk IO column of the paper's Table 6. Striping splits large IOs
// across devices, which is why large sequential writes outrun a single
// queue-depth-one device — the effect the paper notes for MemSnap's
// random IO (sequential on disk).
//
// Devices persist data immediately but track in-flight writes until
// their completion time; CutPower tears in-flight writes at sector
// granularity, which is exactly the failure the crash-consistency
// machinery upstream (COW object store roots, WAL checksums) must
// survive.
package disk

import (
	"fmt"
	"sync"
	"time"

	"memsnap/internal/pool"
	"memsnap/internal/sim"
)

// oldBufSector pools the sector-sized pre-write contents snapshots
// (oldData) the tear model keeps per in-flight sub-page write;
// block-sized ones come from pagePool, and larger writes fall back to
// plain allocation.
var oldBufSector = pool.NewPagePool(512)

// getOldBuf returns an n-byte scratch buffer plus its pool handle
// (nil when n falls outside the pooled size classes); the caller
// Releases the handle when the undo data is no longer needed.
//
//memsnap:owns
func getOldBuf(n int) (*pool.Page, []byte) {
	switch {
	case n <= 512:
		pg := oldBufSector.Get()
		return pg, pg.Data[:n]
	case n <= pageSize:
		pg := pagePool.Get()
		return pg, pg.Data[:n]
	}
	//lint:allow hotalloc oversize old-data reads bypass the sector/block pools; rare
	return nil, make([]byte, n)
}

// Device is one simulated SSD.
type Device struct {
	costs *sim.CostModel

	mu       sync.Mutex
	data     *pageTable
	nextFree time.Duration
	inflight []inflightWrite
	// gcFloor is the highest horizon gcInflightLocked has reclaimed
	// undo history up to: state before it cannot be reconstructed, so
	// CutPower clamps earlier cut times forward to it.
	gcFloor time.Duration
	// Straggler window: IO starting in [stragFrom, stragTo) costs
	// stragFactor times the normal base+transfer latency, modeling a
	// degraded device (fail-slow SSD, garbage-collection stall).
	stragFrom, stragTo time.Duration
	stragFactor        int

	writes       int64
	reads        int64
	bytesWritten int64
	bytesRead    int64
}

type inflightWrite struct {
	submit     time.Duration
	completion time.Duration
	offset     int64
	oldData    []byte
	// buf is oldData's pool handle, released when the record is
	// dropped (gc or power cut); nil for unpooled buffers. For a
	// whole-page write it is the page the write displaced, or the
	// shared zero page (whose Release is a no-op).
	buf *pool.Page
}

// NewDevice returns an empty device of the given capacity in bytes.
func NewDevice(costs *sim.CostModel, capacity int64) *Device {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Device{costs: costs, data: newPageTable(capacity)}
}

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.data.capacity
}

// SetStraggler installs a slow-IO window: any IO whose service starts
// in [from, to) costs factor times the normal base+transfer latency.
// Windows may be installed ahead of virtual time (fault schedules
// pre-install them), and factor <= 1 clears the window. Queueing still
// applies: a straggling IO delays everything behind it, which is the
// fail-slow amplification the window is meant to exercise.
func (d *Device) SetStraggler(from, to time.Duration, factor int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if factor <= 1 {
		d.stragFrom, d.stragTo, d.stragFactor = 0, 0, 0
		return
	}
	d.stragFrom, d.stragTo, d.stragFactor = from, to, factor
}

// ioCostLocked returns the service cost of an n-byte IO whose service
// starts at start, applying the straggler window if one covers start.
func (d *Device) ioCostLocked(start time.Duration, n int) time.Duration {
	cost := d.costs.DiskBaseLatency + d.costs.TransferCost(n)
	if d.stragFactor > 1 && start >= d.stragFrom && start < d.stragTo {
		cost *= time.Duration(d.stragFactor)
	}
	return cost
}

func (d *Device) checkRange(offset int64, n int) {
	if offset < 0 || offset+int64(n) > d.data.capacity {
		//lint:allow hotalloc fatal-path formatting on an out-of-range IO
		panic(fmt.Sprintf("disk: IO out of range: off=%d len=%d cap=%d", offset, n, d.data.capacity))
	}
}

// SubmitWrite issues a write at virtual time at and returns its
// completion time. Data lands in the backing store immediately but is
// only durable once the returned completion time has passed relative
// to any later CutPower. The undo buffer it acquires is parked in
// d.inflight until gcInflightLocked or CutPower releases it.
//
//memsnap:owns
func (d *Device) SubmitWrite(at time.Duration, offset int64, data []byte) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(offset, len(data))

	start := at
	if d.nextFree > start {
		start = d.nextFree
	}
	completion := start + d.ioCostLocked(start, len(data))
	d.nextFree = completion

	d.applyLocked(at, completion, offset, data)
	d.writes++
	d.bytesWritten += int64(len(data))
	d.gcInflightLocked(at)
	return completion
}

// applyLocked lands one write segment in the store and parks its undo
// record in d.inflight. A segment covering exactly one aligned page
// swaps in a fresh page and keeps the displaced one as the undo
// record, so the block is copied once; any other segment snapshots the
// bytes it overwrites and writes in place.
//
//memsnap:owns
func (d *Device) applyLocked(at, completion time.Duration, offset int64, data []byte) {
	var buf *pool.Page
	var old []byte
	if len(data) == pageSize && offset%pageSize == 0 {
		buf = d.data.swapPage(offset, data)
		old = buf.Data
	} else {
		buf, old = getOldBuf(len(data))
		d.data.readAt(offset, old)
		d.data.writeAt(offset, data)
	}
	d.inflight = append(d.inflight, inflightWrite{submit: at, completion: completion, offset: offset, oldData: old, buf: buf})
}

// SubmitRead issues a read at virtual time at, fills buf, and returns
// the completion time.
func (d *Device) SubmitRead(at time.Duration, offset int64, buf []byte) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(offset, len(buf))

	start := at
	if d.nextFree > start {
		start = d.nextFree
	}
	completion := start + d.ioCostLocked(start, len(buf))
	d.nextFree = completion

	d.data.readAt(offset, buf)
	d.reads++
	d.bytesRead += int64(len(buf))
	return completion
}

// gcInflightLocked drops in-flight records that completed before the
// oldest time any caller could still cut power at. We use the issue
// time 'at' as a conservative horizon: a power cut is always injected
// at a time >= the last activity observed by the injector.
func (d *Device) gcInflightLocked(at time.Duration) {
	if len(d.inflight) < 64 {
		return
	}
	kept := d.inflight[:0]
	for _, w := range d.inflight {
		if w.completion > at {
			kept = append(kept, w)
		} else {
			w.buf.Release()
		}
	}
	if len(kept) < len(d.inflight) && at > d.gcFloor {
		d.gcFloor = at
	}
	// Zero the dropped tail so the backing array does not retain
	// released buffers.
	clear(d.inflight[len(kept):])
	d.inflight = kept
}

// CutPower simulates a power failure at virtual time at. Writes whose
// completion is after at are torn: each sector is independently either
// durable or rolled back to its previous contents, chosen by rng.
// Sectors themselves are never torn (disks guarantee sector
// atomicity). The in-flight list is cleared; the device is then in its
// post-crash state.
//
// A cut earlier than undo history the device has already reclaimed
// (gcInflightLocked finalizes writes behind the latest submission
// times) is clamped forward to the reclaim floor: the device cannot
// reconstruct state before it. Callers cutting an Array should go
// through Array.CutPower, which applies one uniform clamped instant
// across all devices — per-device clamping would crash each device at
// a different virtual time and tear cross-device consistency.
func (d *Device) CutPower(at time.Duration, rng *sim.RNG) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if at < d.gcFloor {
		at = d.gcFloor
	}
	sector := d.costs.DiskSectorSize
	// Roll back newest-first so overlapping in-flight writes resolve
	// to the oldest surviving contents for rolled-back sectors.
	for i := len(d.inflight) - 1; i >= 0; i-- {
		w := d.inflight[i]
		if w.completion <= at {
			continue
		}
		for s := 0; s < len(w.oldData); s += sector {
			// Writes issued at or after the cut never reached the
			// device; writes straddling the cut tear per sector.
			if w.submit < at && rng.Float64() < 0.5 {
				continue // this sector made it to the platter
			}
			end := s + sector
			if end > len(w.oldData) {
				end = len(w.oldData)
			}
			d.data.writeAt(w.offset+int64(s), w.oldData[s:end])
		}
	}
	for i := range d.inflight {
		d.inflight[i].buf.Release()
	}
	d.inflight = nil
	d.nextFree = 0
}

// GCFloor reports the time CutPower would clamp an earlier cut
// forward to: the highest horizon the device has reclaimed undo
// history up to (zero while all history is still held).
func (d *Device) GCFloor() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcFloor
}

// PeekAt copies device contents without charging any cost or touching
// the queue. For tests and tooling only.
//
//lint:allow faultpath deliberate zero-cost escape hatch for tests and tooling
func (d *Device) PeekAt(offset int64, buf []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(offset, len(buf))
	d.data.readAt(offset, buf)
}

// Stats reports device counters.
type Stats struct {
	Writes       int64
	Reads        int64
	BytesWritten int64
	BytesRead    int64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Writes:       d.writes,
		Reads:        d.reads,
		BytesWritten: d.bytesWritten,
		BytesRead:    d.bytesRead,
	}
}
