// Package oo7 generates the OO7 benchmark database [CDN93] inside the
// simulated object store and provides the query suite the paper's
// validation (§5) uses. The paper's index-scan experiment runs on the
// AtomicParts collection: 70 000 objects of 56 bytes packed at a 96 % fill
// factor into 1000 pages of 4096 bytes, with an unclustered index on the
// uniformly distributed Id attribute.
package oo7

import (
	"fmt"
	"math/rand"

	"disco/internal/algebra"
	"disco/internal/objstore"
	"disco/internal/stats"
	"disco/internal/types"
)

// Scale parametrizes the generated database.
type Scale struct {
	// AtomicParts is the AtomicParts cardinality.
	AtomicParts int
	// AtomicPerComposite groups atomic parts into composite parts.
	AtomicPerComposite int
	// ConnectionsPerAtomic is the out-degree of the connection graph
	// (3, 6 or 9 in OO7).
	ConnectionsPerAtomic int
	// DistinctBuildDates bounds the buildDate domain.
	DistinctBuildDates int
	// ShuffledPlacement stores AtomicParts in shuffled id order
	// (unclustered index scans then follow Yao's curve); false stores in
	// id order (clustered).
	ShuffledPlacement bool
}

// PaperScale is the configuration of the paper's §5 experiment.
func PaperScale() Scale {
	return Scale{
		AtomicParts:          70000,
		AtomicPerComposite:   20,
		ConnectionsPerAtomic: 3,
		DistinctBuildDates:   1000,
		ShuffledPlacement:    true,
	}
}

// TinyScale is a fast configuration for tests.
func TinyScale() Scale {
	return Scale{
		AtomicParts:          2000,
		AtomicPerComposite:   20,
		ConnectionsPerAtomic: 3,
		DistinctBuildDates:   100,
		ShuffledPlacement:    true,
	}
}

// Collection names.
const (
	AtomicParts    = "AtomicParts"
	CompositeParts = "CompositeParts"
	Documents      = "Documents"
	Connections    = "Connections"
)

// AtomicPartsSchema returns the AtomicParts row schema.
func AtomicPartsSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: AtomicParts, Type: types.KindInt},
		types.Field{Name: "buildDate", Collection: AtomicParts, Type: types.KindInt},
		types.Field{Name: "x", Collection: AtomicParts, Type: types.KindInt},
		types.Field{Name: "y", Collection: AtomicParts, Type: types.KindInt},
		types.Field{Name: "docId", Collection: AtomicParts, Type: types.KindInt},
		types.Field{Name: "partOf", Collection: AtomicParts, Type: types.KindInt},
	)
}

// CompositePartsSchema returns the CompositeParts row schema.
func CompositePartsSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: CompositeParts, Type: types.KindInt},
		types.Field{Name: "buildDate", Collection: CompositeParts, Type: types.KindInt},
		types.Field{Name: "rootPart", Collection: CompositeParts, Type: types.KindInt},
	)
}

// DocumentsSchema returns the Documents row schema.
func DocumentsSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: Documents, Type: types.KindInt},
		types.Field{Name: "title", Collection: Documents, Type: types.KindString},
		types.Field{Name: "partId", Collection: Documents, Type: types.KindInt},
	)
}

// ConnectionsSchema returns the Connections row schema.
func ConnectionsSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "src", Collection: Connections, Type: types.KindInt},
		types.Field{Name: "dst", Collection: Connections, Type: types.KindInt},
		types.Field{Name: "length", Collection: Connections, Type: types.KindInt},
		types.Field{Name: "kind", Collection: Connections, Type: types.KindString},
	)
}

// Generate creates and loads the OO7 collections into the store,
// deterministic under the seed. AtomicParts gets an index on id (the
// experiment's access path) plus one on partOf; CompositeParts and
// Documents are indexed on id.
func Generate(store *objstore.Store, scale Scale, seed int64) error {
	if scale.AtomicParts <= 0 || scale.AtomicPerComposite <= 0 {
		return fmt.Errorf("oo7: bad scale %+v", scale)
	}
	rng := rand.New(rand.NewSource(seed))
	nComposite := scale.AtomicParts / scale.AtomicPerComposite
	if nComposite < 1 {
		nComposite = 1
	}

	// AtomicParts: 56-byte objects; placement order controls clustering.
	atomic, err := store.CreateCollection(AtomicParts, AtomicPartsSchema(), 56)
	if err != nil {
		return err
	}
	order := make([]int, scale.AtomicParts)
	for i := range order {
		order[i] = i
	}
	if scale.ShuffledPlacement {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, id := range order {
		row := types.Row{
			types.Int(int64(id)),
			types.Int(int64(rng.Intn(scale.DistinctBuildDates))),
			types.Int(int64(rng.Intn(100000))),
			types.Int(int64(rng.Intn(100000))),
			types.Int(int64(id)), // one document per atomic part
			types.Int(int64(id / scale.AtomicPerComposite)),
		}
		if err := atomic.Insert(row); err != nil {
			return err
		}
	}
	if err := atomic.CreateIndex("id", false); err != nil {
		return err
	}
	if err := atomic.CreateIndex("partOf", false); err != nil {
		return err
	}

	composite, err := store.CreateCollection(CompositeParts, CompositePartsSchema(), 40)
	if err != nil {
		return err
	}
	for i := 0; i < nComposite; i++ {
		row := types.Row{
			types.Int(int64(i)),
			types.Int(int64(rng.Intn(scale.DistinctBuildDates))),
			types.Int(int64(i * scale.AtomicPerComposite)),
		}
		if err := composite.Insert(row); err != nil {
			return err
		}
	}
	if err := composite.CreateIndex("id", true); err != nil {
		return err
	}

	docs, err := store.CreateCollection(Documents, DocumentsSchema(), 120)
	if err != nil {
		return err
	}
	for i := 0; i < scale.AtomicParts; i++ {
		row := types.Row{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("Document %d for part", i)),
			types.Int(int64(i)),
		}
		if err := docs.Insert(row); err != nil {
			return err
		}
	}
	if err := docs.CreateIndex("id", true); err != nil {
		return err
	}

	conns, err := store.CreateCollection(Connections, ConnectionsSchema(), 48)
	if err != nil {
		return err
	}
	kinds := []string{"type_a", "type_b", "type_c"}
	for i := 0; i < scale.AtomicParts; i++ {
		for c := 0; c < scale.ConnectionsPerAtomic; c++ {
			row := types.Row{
				types.Int(int64(i)),
				types.Int(int64(rng.Intn(scale.AtomicParts))),
				types.Int(int64(1 + rng.Intn(1000))),
				types.Str(kinds[rng.Intn(len(kinds))]),
			}
			if err := conns.Insert(row); err != nil {
				return err
			}
		}
	}
	if err := conns.CreateIndex("src", false); err != nil {
		return err
	}
	return nil
}

// RangeOnID is the paper's Figure 12 workload: AtomicParts with
// id < sel*|AtomicParts| via the id index, a pure access path over one
// wrapper (the mediator wraps it in a submit).
func RangeOnID(wrapper string, scale Scale, sel float64) *algebra.Node {
	cut := int64(sel * float64(scale.AtomicParts))
	return algebra.Select(
		algebra.Scan(wrapper, AtomicParts),
		algebra.NewSelPred(algebra.Ref{Collection: AtomicParts, Attr: "id"}, stats.CmpLT, types.Int(cut)))
}
