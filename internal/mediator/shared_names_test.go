package mediator

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/filestore"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// The chord federation: nine relations R0..R8 whose two columns are both
// named id and fk, spread round-robin over an object, a relational and a
// file wrapper and joined by Ri.fk = Rj.id along a chain plus chords.
// Every join input but a base relation holds several fields named fk.
var (
	chordSizes = []int{100, 50, 80, 45, 60, 70, 45, 90, 55}
	chordEdges = [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {0, 3}, {2, 6}, {1, 8}}
)

func chordRows(rel int) []types.Row {
	rows := make([]types.Row, chordSizes[rel])
	for r := range rows {
		rows[r] = types.Row{types.Int(int64(r)), types.Int(int64(r % 50))}
	}
	return rows
}

func buildChordMediator(t *testing.T, maxDP int) *Mediator {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Optimizer.Opt.MaxDPRelations = maxDP
	ostore := objstore.Open(objstore.DefaultConfig())
	rstore := relstore.Open(relstore.DefaultConfig())
	fstore := filestore.Open(filestore.DefaultConfig())
	for i := range chordSizes {
		name := fmt.Sprintf("R%d", i)
		schema := types.NewSchema(
			types.Field{Collection: name, Name: "id", Type: types.KindInt},
			types.Field{Collection: name, Name: "fk", Type: types.KindInt},
		)
		var insert func(types.Row) error
		switch i % 3 {
		case 0:
			c, err := ostore.CreateCollection(name, schema, 64)
			if err != nil {
				t.Fatal(err)
			}
			insert = c.Insert
		case 1:
			tb, err := rstore.CreateTable(name, schema, 48)
			if err != nil {
				t.Fatal(err)
			}
			insert = tb.Insert
		default:
			f, err := fstore.CreateFile(name, schema)
			if err != nil {
				t.Fatal(err)
			}
			insert = f.Append
		}
		for _, r := range chordRows(i) {
			if err := insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range []wrapper.Wrapper{
		wrapper.NewObjWrapper("obj", ostore),
		wrapper.NewRelWrapper("rel", rstore),
		wrapper.NewFileWrapper("file", fstore),
	} {
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// chordQuery is one statement over a connected subgraph of the chord:
// every edge inside it as a join predicate, one range filter, and every
// column of every relation selected in relation order.
type chordQuery struct {
	rels          []int
	filter, bound int
}

func randomChordQuery(rng *rand.Rand, k int) chordQuery {
	in := map[int]bool{rng.Intn(len(chordSizes)): true}
	for len(in) < k {
		var frontier [][2]int
		for _, e := range chordEdges {
			if in[e[0]] != in[e[1]] {
				frontier = append(frontier, e)
			}
		}
		e := frontier[rng.Intn(len(frontier))]
		in[e[0]], in[e[1]] = true, true
	}
	q := chordQuery{bound: 10 + rng.Intn(40)}
	for r := range chordSizes {
		if in[r] {
			q.rels = append(q.rels, r)
		}
	}
	q.filter = q.rels[rng.Intn(len(q.rels))]
	return q
}

func (q chordQuery) edges() [][2]int {
	var out [][2]int
	for _, e := range chordEdges {
		if slices.Contains(q.rels, e[0]) && slices.Contains(q.rels, e[1]) {
			out = append(out, e)
		}
	}
	return out
}

func (q chordQuery) sql() string {
	var cols, from, where []string
	for _, r := range q.rels {
		cols = append(cols, fmt.Sprintf("R%d.id, R%d.fk", r, r))
		from = append(from, fmt.Sprintf("R%d", r))
	}
	for _, e := range q.edges() {
		where = append(where, fmt.Sprintf("R%d.fk = R%d.id", e[0], e[1]))
	}
	where = append(where, fmt.Sprintf("R%d.id < %d", q.filter, q.bound))
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(cols, ", "), strings.Join(from, ", "), strings.Join(where, " AND "))
}

// answer is the brute-force result: nested loops over the relations in
// order, each row checked against every edge whose ends are bound, as
// sorted row keys.
func (q chordQuery) answer() []string {
	pos := map[int]int{}
	for i, r := range q.rels {
		pos[r] = i
	}
	edges := q.edges()
	tuples := [][]types.Row{nil}
	for i, r := range q.rels {
		var next [][]types.Row
		for _, tup := range tuples {
			for _, row := range chordRows(r) {
				if r == q.filter && row[0].AsInt() >= int64(q.bound) {
					continue
				}
				cand := append(slices.Clone(tup), row)
				ok := true
				for _, e := range edges {
					a, b := pos[e[0]], pos[e[1]]
					if max(a, b) == i && !cand[a][1].Equal(cand[b][0]) {
						ok = false
					}
				}
				if ok {
					next = append(next, cand)
				}
			}
		}
		tuples = next
	}
	keys := make([]string, len(tuples))
	for i, tup := range tuples {
		var row types.Row
		for _, r := range tup {
			row = append(row, r...)
		}
		keys[i] = row.Key()
	}
	slices.Sort(keys)
	return keys
}

// TestSharedAttributeNames runs random three- and four-way joins over
// relations that all name their columns id and fk, under the dynamic
// program and the greedy fallback, and compares every
// answer with brute force. A qualified reference such as R6.fk must never
// resolve to another relation's fk.
func TestSharedAttributeNames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	queries := make([]chordQuery, 40)
	wants := make([][]string, len(queries))
	for i := range queries {
		queries[i] = randomChordQuery(rng, 3+rng.Intn(2))
		wants[i] = queries[i].answer()
	}
	for name, maxDP := range map[string]int{"dp": 10, "greedy": 1} {
		t.Run(name, func(t *testing.T) {
			m := buildChordMediator(t, maxDP)
			wrong := 0
			for qi, q := range queries {
				res, err := m.Query(q.sql())
				if err != nil {
					t.Fatalf("%s: %v", q.sql(), err)
				}
				got := make([]string, len(res.Rows))
				for i, r := range res.Rows {
					got[i] = r.Key()
				}
				slices.Sort(got)
				if want := wants[qi]; !slices.Equal(got, want) {
					wrong++
					t.Errorf("%s: %d rows, brute force %d", q.sql(), len(got), len(want))
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d answers wrong", wrong, len(queries))
			}
		})
	}
}
