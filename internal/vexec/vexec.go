// Package vexec is the mediator's pipelined, vectorized execution
// engine: the batch-iterator replacement for evaluating algebra trees
// one materialized operator at a time. Operators consume and produce
// fixed-size row batches (DefaultBatchSize rows) through a pull-based
// Next(batch) interface; filter, project, union and nested-loop join run
// fully pipelined, while sort, duplicate elimination, hash join and
// aggregation are pipeline breakers, with Grace-style spill-to-disk
// partitioning for inputs larger than the memory budget
// (Options.MemBytes). A pipeline runs on its caller's goroutine:
// concurrency lives across queries, not inside one.
//
// Determinism contract (relied on by the engine's bit-identity tests and
// the loadgen digest oracle):
//
//   - No spill: output is bit-identical to the naive plan evaluator the
//     tests compare against (internal/refeval).
//   - Spill: row values stay bit-identical (per-group/per-pair work is
//     still input-ordered inside a partition) but output order becomes
//     partition-major — a multiset-identical permutation.
//   - Sort is stable under types.Constant.Compare. Compare ties a NaN
//     with every number, which is no strict weak order, so a sort whose
//     key columns hold a float NaN runs the insertion-and-merge stable
//     sort the reference evaluator runs (slices.SortStableFunc, the
//     algorithm of sort.SliceStable) and yields its order exactly. Any
//     other input sorts a permutation by (keys, input index), which is
//     that same stable order.
//
// The engine charges virtual-clock time analytically from the operator
// row counts this package reports (see Counts), so how the pipeline
// batches or spills never perturbs the simulation's response times.
package vexec

import (
	"sync"

	"disco/internal/types"
)

// DefaultBatchSize is the target rows-per-batch of the pipeline.
const DefaultBatchSize = 1024

// Options configures one pipeline execution.
type Options struct {
	// MemBytes bounds the bytes a hash join build side or an aggregation
	// input may hold in memory before Grace-partitioning to disk.
	// 0 disables spilling.
	MemBytes int64
	// SpillDir is where spill partitions are created ("" = os.TempDir()).
	SpillDir string
	// BatchSize overrides DefaultBatchSize (0 = default).
	BatchSize int
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// Batch is one vector of rows flowing through the pipeline. The slice
// header is reused across Next calls; the row backing arrays are not, so
// retaining row values across pulls is safe (breakers depend on this),
// retaining the Rows slice itself is not. Rows may be the data source's
// own storage — a store's rows reach the pipeline uncopied — so no
// operator writes into a row it did not build.
type Batch struct {
	// Rows is the batch contents. It may alias upstream storage (a
	// store's rows, a source's row set, a breaker's materialized output)
	// — read-only for the consumer.
	Rows []types.Row
	// buf is the batch's owned backing array. Operators that build output
	// into the caller's batch MUST append into own() and publish with
	// emit(); appending into Rows[:0] would write through whatever
	// storage the batch last aliased (e.g. a source's catalog rows once
	// the batch cycles through the pool).
	buf []types.Row
}

// own returns the batch's owned storage, emptied, for building output.
func (b *Batch) own() []types.Row { return b.buf[:0] }

// emit publishes rows built in own() storage (append may have grown it).
func (b *Batch) emit(rows []types.Row) {
	b.buf = rows
	b.Rows = rows
}

// Op is the pull-based batch iterator every operator implements.
//
// Next fills b.Rows (possibly aliasing upstream storage) and reports
// whether the batch carries any rows; false means the operator is
// exhausted and b.Rows is empty. The batch contents are valid until the
// next Next or Close call on the same operator. Open must be called
// once before Next; Close releases resources (spill files, pooled
// batches) and must be called exactly once, even after an error.
type Op interface {
	Open() error
	Next(b *Batch) (bool, error)
	Close() error
}

// batchPool recycles batch buffers across pipelines so steady-state
// execution performs no per-batch allocations.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch(size int) *Batch {
	b := batchPool.Get().(*Batch)
	if cap(b.buf) < size {
		b.buf = make([]types.Row, 0, size)
	}
	b.Rows = nil
	return b
}

func putBatch(b *Batch) {
	if b == nil {
		return
	}
	b.Rows = nil // drop any alias of upstream storage
	batchPool.Put(b)
}

// Drain opens the pipeline, pulls it to exhaustion and returns every row
// in emission order. It is the materialization boundary the engine and
// wrapper use at the plan root, and it copies an answer at most once:
// when the root's whole remaining output already is one slice (a source,
// or a sort, aggregate or spilled hash join after its build) Drain takes
// that slice, counted into the root's NodeStat.Out as
// the batches would have been; otherwise it collects the batches' row
// headers in pooled chunks and allocates the result once, at its exact
// size. The answer may alias store or operator storage: it is read-only.
func Drain(root Op, batchSize int) ([]types.Row, error) {
	if err := root.Open(); err != nil {
		root.Close()
		return nil, err
	}
	out, err := drainAll(root, batchSize)
	if err != nil {
		root.Close()
		return nil, err
	}
	if err := root.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// materialized is implemented by operators whose remaining output is, or
// after their build phase becomes, one slice.
type materialized interface {
	// rest builds the operator if it has not run yet and returns all of
	// its remaining output, consuming it. ok is false when the output
	// streams instead; then nothing is consumed and Next carries on.
	rest() (rows []types.Row, ok bool, err error)
}

// restOf returns rows[*pos:] with its capacity pinned, so an append by the
// taker copies, and marks the slice consumed.
func restOf(rows []types.Row, pos *int) []types.Row {
	out := rows[*pos:len(rows):len(rows)]
	*pos = len(rows)
	if len(out) == 0 {
		return nil
	}
	return out
}

// drainAll pulls an opened operator to exhaustion: the operator's own
// slice when it has one, else one exact-size copy of its batches.
func drainAll(op Op, batchSize int) ([]types.Row, error) {
	if m, ok := op.(materialized); ok {
		rows, ok, err := m.rest()
		if err != nil || ok {
			return rows, err
		}
	}
	return collect(op, batchSize)
}

// collect pulls op's batches to exhaustion into one exact-size slice.
func collect(op Op, batchSize int) ([]types.Row, error) {
	c := collectorPool.Get().(*collector)
	defer collectorPool.Put(c)
	b := getBatch(batchSize)
	defer putBatch(b)
	for {
		ok, err := op.Next(b)
		if err != nil {
			c.reset()
			return nil, err
		}
		if !ok {
			return c.result(), nil
		}
		c.add(b.Rows)
	}
}

// chunkRows is the row-header capacity of one collector chunk.
const chunkRows = 4096

// collector gathers row headers in fixed-size chunks that survive in
// collectorPool, so collecting an answer of unknown length allocates
// nothing until result() makes the one exact-size copy.
type collector struct {
	chunks [][]types.Row
	n      int
}

var collectorPool = sync.Pool{New: func() any { return new(collector) }}

func (c *collector) add(rows []types.Row) {
	for len(rows) > 0 {
		ci, off := c.n/chunkRows, c.n%chunkRows
		if ci == len(c.chunks) {
			c.chunks = append(c.chunks, make([]types.Row, chunkRows))
		}
		k := copy(c.chunks[ci][off:], rows)
		rows = rows[k:]
		c.n += k
	}
}

func (c *collector) push(r types.Row) { c.add([]types.Row{r}) }

// result returns the collected rows in one new slice (nil when empty) and
// resets the collector.
func (c *collector) result() []types.Row {
	if c.n == 0 {
		return nil
	}
	out := make([]types.Row, c.n)
	for i := 0; i*chunkRows < c.n; i++ {
		copy(out[i*chunkRows:], c.chunks[i][:min(chunkRows, c.n-i*chunkRows)])
	}
	c.reset()
	return out
}

// reset drops the collected row references, so a pooled chunk keeps no
// answer alive.
func (c *collector) reset() {
	for i := 0; i*chunkRows < c.n; i++ {
		clear(c.chunks[i][:min(chunkRows, c.n-i*chunkRows)])
	}
	c.n = 0
}

// Slab sizes of the row arena, in constants: an arena's first slab is
// arenaMinSlab (8 KiB) and each later one doubles, up to arenaMaxSlab.
const (
	arenaMinSlab = 256
	arenaMaxSlab = 16384
)

// arena bump-allocates row storage in slabs so operators that build
// output rows (project, joins) do not allocate per row. Slabs grow
// geometrically, so what an operator allocates is proportional to what it
// emits: a 70-row answer costs one 8 KiB slab, and a long scan settles on
// arenaMaxSlab-sized ones after wasting at most half of what it used. An
// operator that knows its batch's size reserves it first, so a fresh
// arena's first slab is exactly that batch.
// Growth copies nothing: emitted rows keep referencing their slab, and
// the arena simply drops its pointer when a slab fills (the rows keep it
// alive). An operator marked transient (its consumer provably never
// retains row storage past the next pull — see markTransient) calls
// reset() at the top of each Next instead, rewinding the slab it has
// grown to, so join- and project-heavy pipelines stop allocating per
// batch once that slab holds a whole batch.
type arena struct {
	slab []types.Constant
}

// reset rewinds the current slab — the largest of the growth sequence —
// for reuse. Only safe when every row handed out since the last reset is
// already dead (the transient contract).
func (a *arena) reset() { a.slab = a.slab[:0] }

// reserve sizes a fresh arena's first slab to exactly n constants, the
// storage of the batch about to be built; an arena that has a slab keeps
// growing by alloc's doubling.
func (a *arena) reserve(n int) {
	if cap(a.slab) == 0 && n > 0 {
		a.slab = make([]types.Constant, 0, n)
	}
}

// alloc returns a row of n constants carved from the slab (zeroed when
// the slab is fresh; callers overwrite every position). A full slab is
// replaced by one twice its size, or of n constants when the row is wider
// than that. The full slice expression pins the capacity so a later
// append on the row cannot clobber a neighbour.
func (a *arena) alloc(n int) types.Row {
	if len(a.slab)+n > cap(a.slab) {
		c := max(arenaMinSlab, min(2*cap(a.slab), arenaMaxSlab), n)
		a.slab = make([]types.Constant, 0, c)
	}
	off := len(a.slab)
	a.slab = a.slab[:off+n]
	return types.Row(a.slab[off : off+n : off+n])
}

// concat builds l ++ r in arena storage (the pipelined replacement for
// types.Row.Concat, which allocates per call).
func (a *arena) concat(l, r types.Row) types.Row {
	row := a.alloc(len(l) + len(r))
	copy(row, l)
	copy(row[len(l):], r)
	return row
}
