package algebra

import (
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"disco/internal/types"
)

// This file implements the 128-bit incremental structural hash that keys
// the result cache and its search-time view, the history recorder's
// observations and the registry's exact-rule index. The hash encodes exactly the
// information Signature() encodes — operator kinds, case-folded attribute
// references and projection columns, exact collection/wrapper names and
// aggregate aliases, canonicalized constants — but it is computed
// bottom-up: a node's hash mixes its local fields with its children's
// already-computed hashes, so hashing a candidate plan whose subtrees are
// shared with earlier candidates costs O(fresh nodes), not O(tree), and
// allocates nothing.
//
// Contract (probabilistic analogue of the Signature contract):
//
//	a.Equal(b)  =>  a.StructuralHash() == b.StructuralHash()
//	!a.Equal(b) =>  hashes differ except with probability ~2^-128
//
// Those tables therefore key on the hash alone (the exact-rule index
// confirms a hit with Equal); the randomized agreement test in
// hash_test.go checks the hash against Signature() over generated plan
// trees.

// Hash128 is a 128-bit structural plan hash, used as a comparable map key.
type Hash128 struct {
	Lo, Hi uint64
}

// The two lanes use independent mixing so that a collision in one lane is
// uncorrelated with the other: lane A is FNV-1a, lane B is a
// rotate-xor-multiply scheme with a golden-ratio multiplier.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mixPrime  = 0x9E3779B97F4A7C15
)

// structHasher accumulates bytes into the two hash lanes.
type structHasher struct {
	a, b uint64
}

func newStructHasher() structHasher {
	return structHasher{a: fnvOffset, b: mixPrime}
}

func (h *structHasher) byte(c byte) {
	h.a = (h.a ^ uint64(c)) * fnvPrime
	h.b = ((h.b << 13) | (h.b >> 51)) ^ uint64(c)
	h.b *= mixPrime
}

func (h *structHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

// str hashes a string with a length prefix, so variable-length fields
// cannot run into each other (the framing role strconv.Quote plays in the
// signature encoding).
func (h *structHasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// foldedStr hashes a string case-folded the same way the signature
// encoder folds it (strings.ToLower), without allocating: ASCII bytes are
// lowered in place, multi-byte runes go through unicode.ToLower. Framing
// uses a trailing 0xFF sentinel rather than a length prefix because
// folding can change a string's byte length (Kelvin sign → 'k') without
// changing its signature encoding; 0xFF never occurs in UTF-8 output.
func (h *structHasher) foldedStr(s string) {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			h.byte(c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		lr := unicode.ToLower(r)
		var buf [utf8.UTFMax]byte
		n := utf8.EncodeRune(buf[:], lr)
		for j := 0; j < n; j++ {
			h.byte(buf[j])
		}
		i += size
	}
	h.byte(0xFF)
}

func (h *structHasher) ref(r Ref) {
	h.foldedStr(r.Collection)
	h.byte('.')
	h.foldedStr(r.Attr)
}

// constant hashes a constant with the same canonicalization the signature
// uses: numerics (int and float alike) collapse to their float64 bits, the
// rest carry a kind tag.
func (h *structHasher) constant(c types.Constant) {
	switch {
	case c.IsNumeric():
		h.byte('n')
		h.u64(math.Float64bits(c.AsFloat()))
	case c.Kind() == types.KindString:
		h.byte('s')
		h.str(c.AsString())
	case c.Kind() == types.KindBool:
		if c.AsBool() {
			h.byte('t')
		} else {
			h.byte('f')
		}
	default:
		h.byte('_')
	}
}

func (h *structHasher) pred(p *Predicate) {
	// Equal treats nil and the empty predicate alike; both hash as the
	// empty conjunct list.
	if p == nil {
		h.u64(0)
		return
	}
	h.u64(uint64(len(p.Conjuncts)))
	for _, c := range p.Conjuncts {
		h.ref(c.Left)
		h.byte(byte(c.Op))
		if c.RightAttr != nil {
			h.byte('r')
			h.ref(*c.RightAttr)
		} else {
			h.byte('v')
			h.constant(c.RightConst)
		}
	}
}

// StructuralHash returns the 128-bit structural hash of the plan tree,
// computing and caching missing node hashes bottom-up. The cache is filled
// lazily and copied by Clone (a clone is structurally equal by
// construction); OutSchema is excluded, so Resolve never invalidates it.
//
// The cache is write-once: nothing clears it, so a node's structural
// fields must not change after the node (or any tree containing it) is
// first hashed. To vary a plan, build new nodes with the constructors; a
// Clone carries the cached hash, so a mutated clone would hash stale.
// Nothing in the optimizer mutates plans after construction. Lazy cache
// fills are not synchronized — concurrent
// hashers must pre-hash shared subtrees from one goroutine first (the
// mediator's prepare hashes each plan before the plan cache shares it;
// see mediator.Prepared.Hash).
func (n *Node) StructuralHash() Hash128 {
	if n == nil {
		return Hash128{}
	}
	if n.hashOK {
		return Hash128{Lo: n.hashLo, Hi: n.hashHi}
	}
	h := newStructHasher()
	h.byte(byte(n.Kind))
	switch n.Kind {
	case OpScan, OpSubmit:
		h.str(n.Collection)
		h.byte('@')
		h.str(n.Wrapper)
	}
	if n.Pred != nil || n.Kind == OpSelect || n.Kind == OpJoin {
		h.byte('p')
		h.pred(n.Pred)
	}
	if len(n.Cols) > 0 {
		h.byte('c')
		h.u64(uint64(len(n.Cols)))
		for _, c := range n.Cols {
			h.foldedStr(c)
		}
	}
	if len(n.Keys) > 0 {
		h.byte('k')
		h.u64(uint64(len(n.Keys)))
		for _, k := range n.Keys {
			h.ref(k.Attr)
			if k.Desc {
				h.byte('-')
			} else {
				h.byte('+')
			}
		}
	}
	if len(n.GroupBy) > 0 {
		h.byte('g')
		h.u64(uint64(len(n.GroupBy)))
		for _, g := range n.GroupBy {
			h.ref(g)
		}
	}
	if len(n.Aggs) > 0 {
		h.byte('a')
		h.u64(uint64(len(n.Aggs)))
		for _, a := range n.Aggs {
			h.byte(byte(a.Func))
			if a.Star {
				h.byte('*')
			} else {
				h.ref(a.Attr)
			}
			h.str(a.As)
		}
	}
	// Children: combine the cached child hashes instead of re-walking
	// their subtrees — the incremental step.
	h.u64(uint64(len(n.Children)))
	for _, c := range n.Children {
		ch := c.StructuralHash()
		h.u64(ch.Lo)
		h.u64(ch.Hi)
	}
	n.hashLo, n.hashHi = h.a, h.b
	n.hashOK = true
	return Hash128{Lo: n.hashLo, Hi: n.hashHi}
}

// String renders the hash as 32 hex digits, for diagnostics.
func (h Hash128) String() string {
	var buf [32]byte
	hex := func(dst []byte, v uint64) {
		s := strconv.FormatUint(v, 16)
		for i := range dst {
			dst[i] = '0'
		}
		copy(dst[len(dst)-len(s):], s)
	}
	hex(buf[:16], h.Hi)
	hex(buf[16:], h.Lo)
	return string(buf[:])
}
