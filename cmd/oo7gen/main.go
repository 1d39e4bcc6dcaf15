// Command oo7gen generates the OO7 benchmark database [CDN93] in a
// simulated object store and prints the registration-time statistics a
// wrapper would export for it — the triplets of paper §3.2.
//
// Usage:
//
//	oo7gen [-parts N] [-seed S] [-clustered]
package main

import (
	"flag"
	"fmt"
	"os"

	"disco/internal/objstore"
	"disco/internal/oo7"
)

func main() {
	parts := flag.Int("parts", 70000, "AtomicParts cardinality")
	seed := flag.Int64("seed", 1, "generator seed")
	clustered := flag.Bool("clustered", false, "store AtomicParts in id order (clustered placement)")
	flag.Parse()

	scale := oo7.PaperScale()
	scale.AtomicParts = *parts
	scale.ShuffledPlacement = !*clustered

	store := objstore.Open(objstore.DefaultConfig())
	if err := oo7.Generate(store, scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "oo7gen:", err)
		os.Exit(1)
	}

	fmt.Printf("OO7 database (seed %d, %s placement):\n\n", *seed,
		map[bool]string{true: "clustered", false: "shuffled"}[*clustered])
	for _, name := range store.Collections() {
		c, _ := store.Collection(name)
		ext := c.ExtentStats()
		fmt.Printf("%s:\n", name)
		fmt.Printf("  extent: CountObject=%d TotalSize=%d ObjectSize=%d (%d pages)\n",
			ext.CountObject, ext.TotalSize, ext.ObjectSize, c.PageCount())
		schema := c.Schema()
		for i := 0; i < schema.Len(); i++ {
			attr := schema.Field(i).Name
			st, err := c.AttributeStats(attr)
			if err != nil {
				continue
			}
			idx := " "
			if st.Indexed {
				idx = "indexed"
				if st.Clustered {
					idx = "clustered index"
				}
			}
			fmt.Printf("  attribute %-10s CountDistinct=%-8d Min=%-12s Max=%-12s %s\n",
				attr, st.CountDistinct, st.Min, st.Max, idx)
		}
		fmt.Println()
	}
}
