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

// TestArenaReserve: a reservation sizes only a fresh arena's first slab,
// exactly; from then on slabs double as in TestArenaSlabs, and a rewound
// arena keeps reusing the slab it reached.
func TestArenaReserve(t *testing.T) {
	var a arena
	a.reserve(0)
	if cap(a.slab) != 0 {
		t.Fatalf("reserving nothing made a %d-constant slab", cap(a.slab))
	}
	a.reserve(6)
	a.alloc(3)
	a.alloc(3)
	if cap(a.slab) != 6 {
		t.Fatalf("first slab holds %d constants, want the reserved 6", cap(a.slab))
	}
	a.reserve(6)
	a.alloc(3)
	if cap(a.slab) != arenaMinSlab {
		t.Fatalf("second slab holds %d constants, want %d", cap(a.slab), arenaMinSlab)
	}
	a.reset()
	a.reserve(4 * arenaMinSlab)
	if cap(a.slab) != arenaMinSlab {
		t.Fatalf("a reservation replaced the rewound slab with %d constants", cap(a.slab))
	}
}

// TestProjectOneRowSlab: a one-row answer projected onto two columns
// allocates one two-constant slab, not a first slab of arenaMinSlab.
func TestProjectOneRowSlab(t *testing.T) {
	src := newSource([]types.Row{{types.Int(1), types.Int(2), types.Int(3)}}, DefaultBatchSize)
	p := &projectOp{child: src, idx: []int{2, 0}, size: DefaultBatchSize}
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	b := getBatch(DefaultBatchSize)
	if ok, err := p.Next(b); err != nil || !ok || len(b.Rows) != 1 {
		t.Fatalf("Next = %v, %v with %d rows", ok, err, len(b.Rows))
	}
	if got := b.Rows[0]; !got[0].Equal(types.Int(3)) || !got[1].Equal(types.Int(1)) {
		t.Fatalf("projected row %v, want [3 1]", got)
	}
	if cap(p.arena.slab) != 2 {
		t.Errorf("slab holds %d constants, want the row's 2", cap(p.arena.slab))
	}
	putBatch(b)
	if err := p.Close(); err != nil {
		t.Fatal(err)
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
