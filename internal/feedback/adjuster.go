package feedback

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/stats"
)

// Adjuster feeds execution observations back into the catalog
// statistics: it refines extent cardinalities and equality selectivities
// toward observed cardinalities. The mediator's own coefficients are not
// its business; they are set once, by calibration. Every correction is
// bounded and exponentially decayed so a single outlier observation
// cannot poison the model.
type Adjuster struct {
	mu    sync.Mutex
	cards map[string]*CardCorrection
}

// The adjuster's damping.
const (
	// gain is the fraction of each observed log-ratio applied per update
	// (exponential smoothing in log space); 1 would jump to the implied
	// value.
	gain = 0.5
	// maxStep bounds one update's multiplicative change.
	maxStep = 4.0
	// maxFactor bounds the total drift of any statistic from its
	// registered value, keeping a broken feedback signal recoverable.
	maxFactor = 64.0
)

// NewAdjuster returns an adjuster with no corrections learned.
func NewAdjuster() *Adjuster {
	return &Adjuster{cards: make(map[string]*CardCorrection)}
}

// CardCorrection is the learned cardinality correction of one registered
// collection: the catalog's extent is held at round(Base*Factor), where
// Base is the wrapper-registered count and Factor the exponentially
// smoothed actual/estimated ratio.
type CardCorrection struct {
	Wrapper    string  `json:"wrapper"`
	Collection string  `json:"collection"`
	Base       int64   `json:"base"`
	Factor     float64 `json:"factor"`
	Samples    int64   `json:"samples"`
	// ObjectSize is the learned average shipped object size for a source
	// that registered no extent of its own (0 otherwise): it lets a
	// restart reinstate the learned extent with a usable TotalSize.
	ObjectSize int64 `json:"objectSize,omitempty"`

	// applied is the extent value this adjuster last wrote, so Reapply
	// can tell its own writes from a fresh (re-)registration to rebase
	// against. Not persisted: after a restore the first Reapply rebases.
	applied int64
}

// Adjustment describes one applied correction, for experiment tables and
// diagnostics.
type Adjustment struct {
	Kind   string // "extent", "extent-learned" or "distinct"
	Target string
	Old    float64
	New    float64
}

func (a Adjustment) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g", a.Kind, a.Target, a.Old, a.New)
}

// Apply folds one execution report into the catalog: submit-boundary
// cardinalities correct the source collections' extents, and mediator-side
// equality selections refine attribute distinct counts. It returns the
// applied corrections.
func (a *Adjuster) Apply(rep *Report, cat *catalog.Catalog) []Adjustment {
	if rep == nil || cat == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Adjustment
	for i := range rep.Obs {
		o := &rep.Obs[i]
		if o.Excluded {
			continue
		}
		switch {
		case o.Node.Kind == algebra.OpSubmit:
			out = append(out, a.correctExtent(o, cat)...)
		case o.Site == "mediator" && o.Node.Kind == algebra.OpSelect:
			out = append(out, a.refineSelectivity(o, cat)...)
		}
	}
	return out
}

// correctExtent attributes a submit boundary's actual/estimated
// cardinality ratio to the extent of the collection the subtree derives
// from. Subtrees combining several collections (joins, unions) carry no
// single attributable extent and are skipped.
func (a *Adjuster) correctExtent(o *Obs, cat *catalog.Catalog) []Adjustment {
	scan := derivedScan(o.Node)
	if scan == nil {
		return nil
	}
	wrapperName := o.Node.Wrapper
	if wrapperName == "" {
		wrapperName = scan.Wrapper
	}
	info := lookupCollection(cat, wrapperName, scan.Collection)
	if info == nil {
		return nil
	}
	key := wrapperName + "\x00" + scan.Collection
	if !info.HasExtent {
		// The source registered no statistics at all (flat files "export
		// no statistics"): adopt the observed cardinality as a learned
		// extent so estimation has something better than the defaults.
		// The chain is selection-free, so ActRows IS the extent.
		n := int64(math.Round(math.Max(o.ActRows, 1)))
		c := &CardCorrection{
			Wrapper: wrapperName, Collection: scan.Collection,
			Base: n, Factor: 1, Samples: 1,
		}
		if o.Bytes > 0 {
			c.ObjectSize = o.Bytes / n
		}
		a.cards[key] = c
		info.HasExtent = true
		info.Extent.ObjectSize = c.ObjectSize
		a.writeExtent(info, c)
		return []Adjustment{{
			Kind:   "extent-learned",
			Target: wrapperName + "/" + scan.Collection,
			Old:    0,
			New:    float64(info.Extent.CountObject),
		}}
	}
	ratio := math.Max(o.ActRows, 1) / math.Max(o.EstRows, 1)
	step := clampF(math.Exp(gain*math.Log(ratio)), 1/maxStep, maxStep)
	c, ok := a.cards[key]
	if !ok {
		if step == 1 {
			// An exact estimate leaves a new factor at 1: nothing to
			// correct, store or re-apply.
			return nil
		}
		c = &CardCorrection{
			Wrapper:    wrapperName,
			Collection: scan.Collection,
			Base:       info.Extent.CountObject,
			Factor:     1,
		}
		a.cards[key] = c
	} else if c.applied != info.Extent.CountObject {
		// The collection was re-registered since our last write: the
		// current catalog value is the wrapper's fresh claim. Rebase.
		c.Base = info.Extent.CountObject
	}
	c.Factor = clampF(c.Factor*step, 1/maxFactor, maxFactor)
	c.Samples++
	old := float64(info.Extent.CountObject)
	a.writeExtent(info, c)
	if info.Extent.CountObject == int64(old) {
		return nil
	}
	return []Adjustment{{
		Kind:   "extent",
		Target: wrapperName + "/" + scan.Collection,
		Old:    old,
		New:    float64(info.Extent.CountObject),
	}}
}

// writeExtent installs a correction into the catalog entry, keeping the
// derived statistics consistent: TotalSize tracks the corrected count.
func (a *Adjuster) writeExtent(info *catalog.CollectionInfo, c *CardCorrection) {
	n := int64(math.Round(float64(c.Base) * c.Factor))
	if n < 1 {
		n = 1
	}
	prev := info.Extent.CountObject
	info.Extent.CountObject = n
	if info.Extent.ObjectSize == 0 && c.ObjectSize > 0 {
		info.Extent.ObjectSize = c.ObjectSize
	}
	if info.Extent.ObjectSize > 0 {
		info.Extent.TotalSize = n * info.Extent.ObjectSize
	} else if prev > 0 {
		info.Extent.TotalSize = int64(math.Round(float64(info.Extent.TotalSize) * float64(n) / float64(prev)))
	}
	c.applied = n
}

// refineSelectivity nudges an attribute's distinct count toward the
// observed selectivity of a mediator-side equality selection (rows out /
// rows in). Only single-comparison predicates against a constant are
// attributable. A range leaves the statistics alone: the uniform Min/Max
// model has nothing it could safely adjust.
func (a *Adjuster) refineSelectivity(o *Obs, cat *catalog.Catalog) []Adjustment {
	n := o.Node
	if n.Pred == nil || len(n.Pred.Conjuncts) != 1 || o.ActIn <= 0 {
		return nil
	}
	cmp := n.Pred.Conjuncts[0]
	if cmp.Op != stats.CmpEQ || cmp.RightAttr != nil || cmp.RightConst.IsNull() {
		return nil
	}
	scan := findScan(n, cmp.Left)
	if scan == nil {
		return nil
	}
	info := lookupCollection(cat, scan.Wrapper, scan.Collection)
	if info == nil {
		return nil
	}
	key := lowerASCII(cmp.Left.Attr)
	ast, ok := info.Attrs[key]
	if !ok {
		return nil
	}
	estSel := ast.Selectivity(cmp.Op, cmp.RightConst)
	obsSel := o.ActRows / o.ActIn
	if estSel <= 0 || isBad(obsSel) {
		return nil
	}
	// Damped in log space, floored so an empty result cannot zero the
	// statistic out.
	lo := math.Max(obsSel, 1e-6)
	newSel := math.Exp(math.Log(estSel) + gain*(math.Log(lo)-math.Log(estSel)))
	newSel = clampF(newSel, estSel/maxStep, estSel*maxStep)
	newSel = clampF(newSel, 1e-9, 1)
	old := ast.CountDistinct
	d := int64(math.Round(1 / newSel))
	if d < 1 {
		d = 1
	}
	if d == old {
		return nil
	}
	ast.CountDistinct = d
	info.Attrs[key] = ast
	return []Adjustment{{
		Kind:   "distinct",
		Target: scan.Wrapper + "/" + scan.Collection + "." + key,
		Old:    float64(old),
		New:    float64(d),
	}}
}

// Reapply installs every learned cardinality correction into the catalog
// (after a snapshot restore or a wrapper re-registration) and returns the
// number of collections touched. Fresh registrations become the new
// correction base.
func (a *Adjuster) Reapply(cat *catalog.Catalog) int {
	if cat == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, c := range a.cards {
		info := lookupCollection(cat, c.Wrapper, c.Collection)
		if info == nil {
			continue
		}
		switch {
		case !info.HasExtent:
			// The source still exports no statistics: reinstate the
			// learned extent as-is.
			info.HasExtent = true
		case c.applied != info.Extent.CountObject:
			c.Base = info.Extent.CountObject
		}
		a.writeExtent(info, c)
		n++
	}
	return n
}

// Corrections returns the learned cardinality corrections, sorted by
// wrapper then collection.
func (a *Adjuster) Corrections() []CardCorrection {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]CardCorrection, 0, len(a.cards))
	for _, c := range a.cards {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wrapper != out[j].Wrapper {
			return out[i].Wrapper < out[j].Wrapper
		}
		return out[i].Collection < out[j].Collection
	})
	return out
}

// restoreCards loads card corrections from a snapshot, dropping invalid
// entries rather than failing.
func (a *Adjuster) restoreCards(cards []CardCorrection) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range cards {
		if c.Wrapper == "" || c.Collection == "" || c.Base < 0 ||
			c.Factor <= 0 || isBad(c.Factor) || c.ObjectSize < 0 {
			continue
		}
		cc := c
		cc.Factor = clampF(cc.Factor, 1/maxFactor, maxFactor)
		cc.applied = 0 // force a rebase on the next Reapply
		a.cards[cc.Wrapper+"\x00"+cc.Collection] = &cc
	}
}

// derivedScan returns the single scan a submit's subtree derives from,
// walking through cardinality-preserving single-child chains; nil when
// the subtree changes cardinality at all — selections included. A
// selective chain's actual rows confound predicate selectivity error
// with extent error: attributing them to the extent makes the two
// corrections fight each other (the factor oscillates between the
// equilibria of differently selective queries), so only selection-free
// subtrees, whose row count IS the extent, correct it.
func derivedScan(n *algebra.Node) *algebra.Node {
	for n != nil {
		switch n.Kind {
		case algebra.OpScan:
			return n
		case algebra.OpProject, algebra.OpSort, algebra.OpSubmit:
			if len(n.Children) != 1 {
				return nil
			}
			n = n.Children[0]
		default:
			return nil
		}
	}
	return nil
}

// findScan locates the scan a selection's attribute reference resolves
// against: the unique scan of the subtree, or the one matching the
// reference's collection qualifier.
func findScan(n *algebra.Node, ref algebra.Ref) *algebra.Node {
	scans := n.Scans()
	if len(scans) == 1 {
		return scans[0]
	}
	if ref.Collection == "" {
		return nil
	}
	var found *algebra.Node
	for _, s := range scans {
		if equalFold(s.Collection, ref.Collection) {
			if found != nil {
				return nil
			}
			found = s
		}
	}
	return found
}

func lookupCollection(cat *catalog.Catalog, wrapperName, collection string) *catalog.CollectionInfo {
	e, ok := cat.Entry(wrapperName)
	if !ok {
		return nil
	}
	if info, ok := e.Collections[collection]; ok {
		return info
	}
	for name, info := range e.Collections {
		if equalFold(name, collection) {
			return info
		}
	}
	return nil
}

func clampF(x, lo, hi float64) float64 {
	if x < lo || isBad(x) {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func equalFold(a, b string) bool { return lowerASCII(a) == lowerASCII(b) }
