package disk

import "memsnap/internal/pool"

// pageTable is a device's backing store: a dense directory of chunks
// sized from the capacity, each chunk a fixed array of pooled pages.
// Pages materialize on first write, so multi-GiB simulated devices
// cost real memory only for the pages actually written; a page never
// written reads as zeroes.
type pageTable struct {
	capacity int64
	dir      []*chunk
}

const (
	// pageSize is the store's allocation unit, the object store's
	// block size.
	pageSize = 4096
	// chunkPages is the number of pages per directory entry (256 KiB
	// of device space).
	chunkPages = 64
)

type chunk [chunkPages]*pool.Page

var (
	// pagePool holds the store's pages and every block-sized undo
	// buffer: a page displaced by a whole-page write becomes that
	// write's undo record and returns here when the record is dropped.
	pagePool = pool.NewPagePool(pageSize)
	// zeroPage is the undo record of a whole-page write to a page that
	// was never written. It is shared and only ever read; having no
	// pool, its Release is a no-op.
	zeroPage = &pool.Page{Data: make([]byte, pageSize)}
)

func newPageTable(capacity int64) *pageTable {
	const chunkBytes = chunkPages * pageSize
	return &pageTable{capacity: capacity, dir: make([]*chunk, (capacity+chunkBytes-1)/chunkBytes)}
}

// slot returns page pi's directory slot, materializing its chunk.
func (t *pageTable) slot(pi int64) **pool.Page {
	c := t.dir[pi/chunkPages]
	if c == nil {
		//lint:allow hotalloc first-touch chunk materialization, once per chunk for the device lifetime
		c = new(chunk)
		t.dir[pi/chunkPages] = c
	}
	return &c[pi%chunkPages]
}

func (t *pageTable) readAt(off int64, dst []byte) {
	for len(dst) > 0 {
		pi, within := off/pageSize, off%pageSize
		n := min(int64(pageSize)-within, int64(len(dst)))
		var pg *pool.Page
		if c := t.dir[pi/chunkPages]; c != nil {
			pg = c[pi%chunkPages]
		}
		if pg != nil {
			copy(dst[:n], pg.Data[within:])
		} else {
			clear(dst[:n])
		}
		off += n
		dst = dst[n:]
	}
}

// writeAt copies src into the store in place.
//
//memsnap:owns
func (t *pageTable) writeAt(off int64, src []byte) {
	for len(src) > 0 {
		pi, within := off/pageSize, off%pageSize
		n := min(int64(pageSize)-within, int64(len(src)))
		sp := t.slot(pi)
		if *sp == nil {
			pg := pagePool.Get()
			if n < pageSize {
				clear(pg.Data)
			}
			*sp = pg
		}
		copy((*sp).Data[within:], src[:n])
		off += n
		src = src[n:]
	}
}

// swapPage installs a fresh page holding src, which covers exactly the
// page-aligned page at off, and returns the page it displaces: the
// shared zero page when none was written. The caller owns the
// returned page.
//
//memsnap:owns
func (t *pageTable) swapPage(off int64, src []byte) *pool.Page {
	pg := pagePool.Get()
	copy(pg.Data, src)
	sp := t.slot(off / pageSize)
	old := *sp
	*sp = pg
	if old == nil {
		old = zeroPage
	}
	return old
}
