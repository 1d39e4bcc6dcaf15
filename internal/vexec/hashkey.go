package vexec

import (
	"math"

	"disco/internal/types"
)

// This file holds the hashing kernels behind the hash join, duplicate
// elimination and grouping. Join keys hash by value, so numerics of equal
// value meet; dedup and group keys hash by identity (kind, payload bits,
// string bytes), the equivalence == on types.Constant decides. Neither
// materializes a key.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// joinKeyHash hashes one join attribute value to its hash-table bucket.
// Numerics are canonicalized through their float64 value so Int(3) and
// Float(3) land in the same bucket (they must join), and so do -0 and 0.
// Values Equal calls equal always share a bucket: rounding an int to a
// float maps equal values to one float. Bucket collisions are
// harmless: the hash join re-verifies every candidate pair with the full
// predicate before emitting it. In-memory tables and Grace spill
// partitioning both bucket through this one function.
func joinKeyHash(c types.Constant) uint64 {
	h := uint64(fnvOffset64)
	switch {
	case c.IsNull():
		return fnvByte(h, 'z')
	case c.IsNumeric():
		f := c.AsFloat()
		if f == 0 {
			f = 0 // -0 joins 0
		}
		return fnvU64(fnvByte(h, 'n'), math.Float64bits(f))
	case c.Kind() == types.KindString:
		return fnvStr(fnvByte(h, 's'), c.AsString())
	default:
		if c.AsBool() {
			return fnvByte(h, 't')
		}
		return fnvByte(h, 'f')
	}
}

// identHash folds one value's identity into h: its kind, then its int or
// float bits, bool payload or string bytes. Constants == calls equal hash
// equal, and Int(3)/Float(3) or 0/-0 hash apart, as they group apart.
func identHash(h uint64, c types.Constant) uint64 {
	var v uint64
	switch c.Kind() {
	case types.KindInt:
		v = uint64(c.AsInt())
	case types.KindFloat:
		v = math.Float64bits(c.AsFloat())
	case types.KindString:
		v = fnvStr(fnvOffset64, c.AsString())
	case types.KindBool:
		if c.AsBool() {
			v = 1
		}
	}
	return mix64(mix64(h, uint64(c.Kind())), v)
}

// mixMul is 2^64 over the golden ratio, the multiplicative-hashing
// constant.
const mixMul = 0x9e3779b97f4a7c15

func mix64(h, v uint64) uint64 {
	h = (h ^ v) * mixMul
	return h ^ h>>32
}

// rowKeyHash hashes the identity of r's values at pos; an empty pos is
// the zero-length key. It is seedless, so a spill partition is a function
// of the key alone. The final avalanche spreads the key into every bit:
// the low bits pick spill partitions, the high bits table slots.
func rowKeyHash(r types.Row, pos []int) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range pos {
		h = identHash(h, r[p])
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}
