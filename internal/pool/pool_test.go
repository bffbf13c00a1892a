package pool

import (
	"testing"
)

func TestPagePoolRecycles(t *testing.T) {
	pp := NewPagePool(4096)
	pg := pp.Get()
	if len(pg.Data) != 4096 {
		t.Fatalf("page len = %d", len(pg.Data))
	}
	pg.Data[0] = 0xAB
	pg.Release()
	st := pp.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.InUse() != 0 {
		t.Fatalf("stats after balanced cycle: %+v", st)
	}
	// The released page comes back (same handle via the sync.Pool's
	// per-P cache in a single-goroutine test).
	pg2 := pp.Get()
	if len(pg2.Data) != 4096 {
		t.Fatalf("recycled page len = %d", len(pg2.Data))
	}
	pg2.Release()
	// sync.Pool randomly drops Puts under -race, so the recycled hit
	// is only observable in a normal build.
	if got := pp.Stats().Misses; !raceEnabled && got != 1 {
		t.Fatalf("misses = %d, want 1 (only the cold Get allocates)", got)
	}
}

func TestPagePoolNilRelease(t *testing.T) {
	var pg *Page
	pg.Release() // must not panic
	(&Page{Data: []byte{1}}).Release()
}

func TestSlicePoolRecyclesCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under -race; recycling is not observable")
	}
	p := NewSlicePool[int]()
	s := p.Get(4)
	s = append(s, 1, 2, 3, 4, 5, 6, 7, 8)
	c := cap(s)
	p.Put(s)
	s2 := p.Get(1)
	if len(s2) != 0 {
		t.Fatalf("recycled slice len = %d, want 0", len(s2))
	}
	if cap(s2) != c {
		t.Fatalf("recycled slice cap = %d, want %d", cap(s2), c)
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.InUse() != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSlicePoolClearsReferences(t *testing.T) {
	p := NewSlicePool[*int]()
	v := 7
	s := p.Get(2)
	s = append(s, &v)
	p.Put(s)
	s2 := p.Get(1)
	s2 = s2[:cap(s2)]
	for i, e := range s2 {
		if e != nil {
			t.Fatalf("element %d retained a reference after Put", i)
		}
	}
}

func TestSlicePoolDropsZeroCap(t *testing.T) {
	p := NewSlicePool[byte]()
	p.Put(nil)
	if st := p.Stats(); st.Puts != 0 {
		t.Fatalf("nil Put counted: %+v", st)
	}
}

// TestSteadyStateAllocFree pins the zero-allocation property the
// persist hot path depends on: warm Get/Put cycles allocate nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	pp := NewPagePool(4096)
	sp := NewSlicePool[int64]()
	// Warm both pools.
	pg := pp.Get()
	pg.Release()
	sp.Put(sp.Get(16))
	avg := testing.AllocsPerRun(100, func() {
		pg := pp.Get()
		pg.Data[0]++
		pg.Release()
		s := sp.Get(16)
		s = append(s, 1)
		sp.Put(s)
	})
	if avg != 0 {
		t.Fatalf("warm Get/Put cycle allocates %.1f/op, want 0", avg)
	}
}

// TestSlicePoolPointerDetection pins which element types Put must
// zero: any type that can reference memory, and nothing else.
func TestSlicePoolPointerDetection(t *testing.T) {
	type flat struct {
		Off, Len uint16
		Words    [4]int64
	}
	type withSlice struct {
		N    int
		Data []byte
	}
	cases := []struct {
		name      string
		got, want bool
	}{
		{"byte", NewSlicePool[byte]().pointers, false},
		{"flat struct", NewSlicePool[flat]().pointers, false},
		{"*int", NewSlicePool[*int]().pointers, true},
		{"string", NewSlicePool[string]().pointers, true},
		{"struct with slice", NewSlicePool[withSlice]().pointers, true},
		{"[2]any", NewSlicePool[[2]any]().pointers, true},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: pointers = %v, want %v", c.name, c.got, c.want)
		}
	}
}
