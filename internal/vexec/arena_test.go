package vexec

import (
	"testing"
	"unsafe"

	"disco/internal/types"
)

// TestArenaSlabs pins the arena's allocation discipline: what an operator
// allocates follows what it emits. Each step allocates one row and names
// the slab capacity the arena must be on afterwards.
func TestArenaSlabs(t *testing.T) {
	if first := arenaMinSlab * int(unsafe.Sizeof(types.Constant{})); first > 16<<10 {
		t.Fatalf("first slab is %d bytes, want at most 16 KiB", first)
	}
	type step struct {
		n       int  // row width to allocate
		reset   bool // rewind before allocating (the transient contract)
		wantCap int  // slab capacity after the allocation
		fresh   bool // whether the allocation started a new slab
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"small answer stays on the first slab", []step{
			{n: 3, wantCap: arenaMinSlab, fresh: true},
			{n: 3, wantCap: arenaMinSlab},
			{n: arenaMinSlab - 6, wantCap: arenaMinSlab},
		}},
		{"a full slab doubles up to the ceiling", []step{
			{n: arenaMinSlab, wantCap: 256, fresh: true},
			{n: 512, wantCap: 512, fresh: true},
			{n: 1024, wantCap: 1024, fresh: true},
			{n: 2048, wantCap: 2048, fresh: true},
			{n: 4096, wantCap: 4096, fresh: true},
			{n: 8192, wantCap: 8192, fresh: true},
			{n: 16384, wantCap: arenaMaxSlab, fresh: true},
			{n: 16384, wantCap: arenaMaxSlab, fresh: true},
			{n: 1, wantCap: arenaMaxSlab, fresh: true},
			{n: 1, wantCap: arenaMaxSlab},
		}},
		{"a row wider than the next slab is honoured", []step{
			{n: 300, wantCap: 300, fresh: true},
			{n: 1, wantCap: 600, fresh: true},
		}},
		{"a row wider than the ceiling is honoured", []step{
			{n: arenaMaxSlab + 5, wantCap: arenaMaxSlab + 5, fresh: true},
			{n: 1, wantCap: arenaMaxSlab, fresh: true},
		}},
		{"reset reuses the largest slab reached", []step{
			{n: 200, wantCap: 256, fresh: true},
			{n: 200, wantCap: 512, fresh: true},
			{n: 400, wantCap: 1024, fresh: true},
			{n: 200, reset: true, wantCap: 1024},
			{n: 800, wantCap: 1024},
			{n: 1000, reset: true, wantCap: 1024},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a arena
			for i, s := range tc.steps {
				if s.reset {
					a.reset()
				}
				before := unsafe.SliceData(a.slab[:cap(a.slab)])
				row := a.alloc(s.n)
				if len(row) != s.n || cap(row) != s.n {
					t.Fatalf("step %d: row len %d cap %d, want both %d", i, len(row), cap(row), s.n)
				}
				if cap(a.slab) != s.wantCap {
					t.Fatalf("step %d: slab capacity %d, want %d", i, cap(a.slab), s.wantCap)
				}
				if fresh := unsafe.SliceData(a.slab[:cap(a.slab)]) != before; fresh != s.fresh {
					t.Fatalf("step %d: new slab = %v, want %v", i, fresh, s.fresh)
				}
			}
		})
	}
}

// TestArenaRowsSurviveGrowth: growth copies nothing and recycles nothing,
// so rows handed out before a slab is replaced keep their values, and an
// append on a row reallocates instead of writing into its neighbour.
func TestArenaRowsSurviveGrowth(t *testing.T) {
	var a arena
	const width = 3
	var rows []types.Row
	for i := 0; cap(a.slab) < arenaMaxSlab; i++ {
		row := a.alloc(width)
		for j := range row {
			row[j] = types.Int(int64(i*width + j))
		}
		rows = append(rows, row)
	}
	_ = append(rows[0], types.Int(-1))
	for i, row := range rows {
		for j, c := range row {
			if want := types.Int(int64(i*width + j)); !c.Equal(want) {
				t.Fatalf("row %d col %d = %s, want %s", i, j, c, want)
			}
		}
	}
}
