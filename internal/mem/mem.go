// Package mem simulates physical memory: 4 KiB frames, per-frame page
// metadata (the analogue of FreeBSD's vm_page), a frame allocator, and
// physical-to-virtual reverse mappings.
//
// MemSnap's kernel implementation tags physical pages with a
// "checkpoint in progress" flag and walks a page's physical-to-virtual
// mappings to reset PTE protections in every address space that maps
// it. Both mechanisms live here.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memsnap/internal/sim"
)

const (
	// PageSize is the size of a physical frame in bytes.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// PageMask masks the offset within a page.
	PageMask = PageSize - 1
)

// PageFlags is a bitfield of per-page state.
type PageFlags uint32

const (
	// FlagCheckpointInProgress marks a page that belongs to an
	// in-flight uCheckpoint. Writes to such a page must take the COW
	// path instead of modifying the original frame.
	FlagCheckpointInProgress PageFlags = 1 << iota
	// FlagTracked marks a page currently present in some thread's
	// dirty set (written since the last protection reset).
	FlagTracked
)

// Frame identifies a physical frame.
type Frame uint32

// NoFrame is the zero-value sentinel for "no frame assigned".
const NoFrame Frame = ^Frame(0)

// ReverseMapping records one virtual mapping of a physical page. The
// holder is opaque to this package; the VM layer stores enough context
// to locate the PTE (supporting multiprocess applications, where one
// physical page appears in several page tables).
type ReverseMapping struct {
	// Owner identifies the address space holding the mapping.
	Owner any
	// VPN is the virtual page number within that address space.
	VPN uint64
}

// Page is the metadata for one physical frame (vm_page).
type Page struct {
	frame Frame
	flags atomic.Uint32

	mu   sync.Mutex
	rmap []ReverseMapping
	refs int32
	// claimed is set once ClaimOrphan hands the page to a freeing
	// party (guarded by mu).
	claimed bool
}

// Frame returns the frame this metadata describes.
func (p *Page) Frame() Frame { return p.frame }

// SetFlag atomically sets the given flag bits.
func (p *Page) SetFlag(f PageFlags) {
	for {
		old := p.flags.Load()
		if p.flags.CompareAndSwap(old, old|uint32(f)) {
			return
		}
	}
}

// ClearFlag atomically clears the given flag bits.
func (p *Page) ClearFlag(f PageFlags) {
	for {
		old := p.flags.Load()
		if p.flags.CompareAndSwap(old, old&^uint32(f)) {
			return
		}
	}
}

// HasFlag reports whether all of the given flag bits are set.
func (p *Page) HasFlag(f PageFlags) bool {
	return PageFlags(p.flags.Load())&f == f
}

// AddMapping records a reverse mapping for this page.
func (p *Page) AddMapping(m ReverseMapping) {
	p.mu.Lock()
	p.rmap = append(p.rmap, m)
	p.refs++
	p.mu.Unlock()
}

// RemoveMapping removes one matching reverse mapping, if present.
func (p *Page) RemoveMapping(owner any, vpn uint64) {
	p.mu.Lock()
	for i, m := range p.rmap {
		if m.Owner == owner && m.VPN == vpn {
			p.rmap = append(p.rmap[:i], p.rmap[i+1:]...)
			p.refs--
			break
		}
	}
	p.mu.Unlock()
}

// Mappings returns a snapshot of the page's reverse mappings.
func (p *Page) Mappings() []ReverseMapping {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ReverseMapping(nil), p.rmap...)
}

// RefCount returns the number of reverse mappings.
func (p *Page) RefCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.refs)
}

// ClaimOrphan reports whether the caller may free the page: no
// mapping is left and no checkpoint holds it. It returns true at most
// once per page, so when a checkpoint release and an in-flight COW
// both see the page orphaned, exactly one of them frees it.
func (p *Page) ClaimOrphan() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refs != 0 || p.claimed || p.HasFlag(FlagCheckpointInProgress) {
		return false
	}
	p.claimed = true
	return true
}

// PhysMem is the simulated physical memory of one machine: a frame
// allocator plus per-frame data and metadata. It is safe for
// concurrent use.
type PhysMem struct {
	costs *sim.CostModel

	mu     sync.Mutex
	frames [][]byte
	pages  []*Page
	free   []Frame

	allocated int64
}

// New returns an empty physical memory backed by the given cost model.
func New(costs *sim.CostModel) *PhysMem {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &PhysMem{costs: costs}
}

// Alloc allocates one zeroed frame, charging the allocation cost to
// clk (which may be nil for setup-time allocations that should not be
// measured).
func (m *PhysMem) Alloc(clk *sim.Clock) *Page {
	if clk != nil {
		clk.Advance(m.costs.FrameAlloc)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allocated++
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		data := m.frames[f]
		for i := range data {
			data[i] = 0
		}
		//lint:allow hotalloc fresh Page identity per frame reuse keeps stale frame pointers inert
		pg := &Page{frame: f}
		m.pages[f] = pg
		return pg
	}
	f := Frame(len(m.frames))
	//lint:allow hotalloc physical memory growth, once per frame for the machine lifetime
	m.frames = append(m.frames, make([]byte, PageSize))
	//lint:allow hotalloc physical memory growth, once per frame for the machine lifetime
	pg := &Page{frame: f}
	m.pages = append(m.pages, pg)
	return pg
}

// Free returns a frame to the allocator. The caller must guarantee no
// mappings remain.
func (m *PhysMem) Free(pg *Page) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pg.frame == NoFrame || int(pg.frame) >= len(m.frames) {
		//lint:allow hotalloc fatal-path formatting on an invalid free
		panic(fmt.Sprintf("mem: freeing invalid frame %d", pg.frame))
	}
	m.pages[pg.frame] = nil
	m.free = append(m.free, pg.frame)
}

// Data returns the backing bytes of a frame. The slice aliases the
// frame; writes through it are writes to simulated physical memory.
func (m *PhysMem) Data(f Frame) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frames[f]
}

// Page returns the metadata for a frame, or nil if the frame is free.
func (m *PhysMem) Page(f Frame) *Page {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(f) >= len(m.pages) {
		return nil
	}
	return m.pages[f]
}

// Copy duplicates src into a new frame (the COW copy), charging frame
// allocation plus a 4 KiB memcpy to clk.
func (m *PhysMem) Copy(clk *sim.Clock, src *Page) *Page {
	dst := m.Alloc(clk)
	if clk != nil {
		clk.Advance(m.costs.MemcpyCost(PageSize))
	}
	copy(m.Data(dst.frame), m.Data(src.frame))
	return dst
}

// Stats reports allocator statistics.
type Stats struct {
	TotalFrames int
	FreeFrames  int
	Allocations int64
}

// Stats returns a snapshot of allocator state.
func (m *PhysMem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		TotalFrames: len(m.frames),
		FreeFrames:  len(m.free),
		Allocations: m.allocated,
	}
}
