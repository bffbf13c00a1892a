package replica

// FuzzPageDiff pins the exactness of the two scans the encoder runs per
// captured page: core.DiffExtents must return exactly the extents of
// the plain byte loop below (its equal-stretch skips are only a speed
// change), and xorRLESize, which scans only those extents, must size
// the kindXorRLE payload exactly as appendXorRLE writes it over the
// whole page.

import (
	"testing"

	"memsnap/internal/core"
)

// refDiffExtents is the reference diff: the word-skip byte loop
// core.DiffExtents used before it skipped 64-byte stretches, with the
// same merge gap (16) and extent cap (96).
func refDiffExtents(prev, cur []byte, dst []core.Extent) []core.Extent {
	const maxExtents, mergeGap = 96, 16
	n := len(cur)
	i := 0
	for i < n {
		for i < n && prev[i] == cur[i] {
			i++
		}
		if i >= n {
			break
		}
		start := i
		end := i + 1
		for j := end; j < n; {
			if prev[j] != cur[j] {
				end = j + 1
				j++
				continue
			}
			k := j
			for k < n && k-j < mergeGap && prev[k] == cur[k] {
				k++
			}
			if k-j >= mergeGap || k == n {
				break
			}
			j = k
		}
		if len(dst) >= maxExtents {
			first := int(dst[0].Off)
			last := end
			for j := end; j < n; j++ {
				if prev[j] != cur[j] {
					last = j + 1
				}
			}
			dst = dst[:0]
			return append(dst, core.Extent{Off: uint16(first), Len: uint16(last - first)})
		}
		dst = append(dst, core.Extent{Off: uint16(start), Len: uint16(end - start)})
		i = end
	}
	return dst
}

// diffPages builds a page pair from fuzz input: prev repeats fill (the
// codec tests' base page when fill is empty), and cur is prev with the
// script's 4-byte mutation ops applied — [2B offset][value][control],
// control's low 6 bits giving the run length - 1 and its top bit
// choosing a constant run over an incrementing one.
func diffPages(fill, script []byte) (prev, cur []byte) {
	prev = basePage()
	if len(fill) > 0 {
		for i := range prev {
			prev[i] = fill[i%len(fill)]
		}
	}
	cur = append([]byte(nil), prev...)
	for i := 0; i+4 <= len(script); i += 4 {
		off := (int(script[i]) | int(script[i+1])<<8) % core.PageSize
		val, ctl := script[i+2], script[i+3]
		run := int(ctl)%64 + 1
		for j := 0; j < run && off+j < core.PageSize; j++ {
			if ctl&0x80 != 0 {
				cur[off+j] = val
			} else {
				cur[off+j] = val + byte(j)
			}
		}
	}
	return prev, cur
}

func FuzzPageDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{0x00, 0x00, 0x01, 0x00})
	f.Add([]byte{0}, []byte{0xFF, 0x0F, 0x01, 0x00})
	f.Add([]byte{0xAA, 0x55}, []byte{0x40, 0x00, 0xAA, 0x3F, 0x80, 0x00, 0x55, 0xBF})
	// One op per 24-byte stride: past the extent cap, so the diff
	// collapses to one spanning extent with equal stretches inside.
	scatter := make([]byte, 0, 4*171)
	for off := 0; off < core.PageSize; off += 24 {
		scatter = append(scatter, byte(off), byte(off>>8), byte(off)|1, 0x01)
	}
	f.Add([]byte{}, scatter)

	f.Fuzz(func(t *testing.T, fill, script []byte) {
		prev, cur := diffPages(fill, script)
		got := core.DiffExtents(prev, cur, nil)
		want := refDiffExtents(prev, cur, nil)
		if len(got) != len(want) {
			t.Fatalf("DiffExtents: %d extents, reference %d (%v vs %v)", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("DiffExtents extent %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
		// The contract xorRLESize relies on: bytes outside the extents
		// are equal.
		next := 0
		for _, e := range got {
			for j := next; j < int(e.Off); j++ {
				if prev[j] != cur[j] {
					t.Fatalf("byte %d differs outside every extent %v", j, got)
				}
			}
			next = int(e.Off) + int(e.Len)
		}
		for j := next; j < len(cur); j++ {
			if prev[j] != cur[j] {
				t.Fatalf("byte %d differs after the last extent %v", j, got)
			}
		}
		if size, enc := xorRLESize(prev, cur, got), len(appendXorRLE(nil, prev, cur)); size != enc {
			t.Fatalf("xorRLESize = %d, appendXorRLE wrote %d bytes (extents %v)", size, enc, got)
		}
	})
}
