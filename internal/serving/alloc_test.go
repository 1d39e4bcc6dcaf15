package serving

import (
	"runtime"
	"testing"
)

// TestQueryAllocBytesCeiling bounds what one small answer costs in heap:
// a 70-row range over the demo federation, prepared from the plan cache,
// must stay under 128 KiB per Mediator.Query. What a submit allocates
// follows what it returns; an executor that sizes row storage for a long
// scan regardless of the answer reads several times the ceiling.
func TestQueryAllocBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	fed, err := NewDemoFederation(Options{Parts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT x, y FROM AtomicParts WHERE AtomicParts.id < 70`
	query := func() {
		res, err := fed.Med.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 70 {
			t.Fatalf("answer has %d rows, want 70", len(res.Rows))
		}
	}
	for i := 0; i < 10; i++ {
		query() // fill the plan cache, the history entry and the batch pool
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per query", perQuery)
	if perQuery > 128<<10 {
		t.Errorf("%d bytes allocated per 70-row query, want at most %d", perQuery, 128<<10)
	}
}
