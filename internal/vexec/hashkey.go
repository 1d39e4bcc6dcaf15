package vexec

import (
	"math"

	"disco/internal/types"
)

// This file holds the hashing/encoding kernels behind the hash join,
// duplicate elimination and grouping: join keys hash straight to a uint64
// without materializing a key, and dedup/group keys are appended in a
// compact binary form to a reused buffer.

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

// fnvBytes is the FNV-1a hash the aggregate's spill uses to assign
// encoded group keys to partitions.
func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = fnvByte(h, c)
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

// keyEnc encodes rows into a reused byte buffer for use as grouping /
// dedup map keys. The encoding is exact and kind-distinguishing — a tag
// byte per value, fixed-width numerics, length-framed strings — so equal
// encodings mean equal (same-kind) values; unlike a separator-joined
// string it cannot collide on embedded separator bytes. Lookups via
// m[string(enc.buf)] do not allocate (the compiler elides the conversion);
// only a first-seen insertion materializes the key string. The zero value
// is ready to use; buf is valid until the next reset.
type keyEnc struct {
	buf []byte
}

func (e *keyEnc) reset() { e.buf = e.buf[:0] }

func (e *keyEnc) u64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (e *keyEnc) constant(c types.Constant) {
	switch c.Kind() {
	case types.KindNull:
		e.buf = append(e.buf, 'z')
	case types.KindInt:
		e.buf = append(e.buf, 'i')
		e.u64(uint64(c.AsInt()))
	case types.KindFloat:
		e.buf = append(e.buf, 'd')
		e.u64(math.Float64bits(c.AsFloat()))
	case types.KindString:
		s := c.AsString()
		e.buf = append(e.buf, 's')
		e.u64(uint64(len(s)))
		e.buf = append(e.buf, s...)
	case types.KindBool:
		if c.AsBool() {
			e.buf = append(e.buf, 't')
		} else {
			e.buf = append(e.buf, 'f')
		}
	default:
		e.buf = append(e.buf, '?')
	}
}

func (e *keyEnc) row(r types.Row) {
	for _, c := range r {
		e.constant(c)
	}
}
