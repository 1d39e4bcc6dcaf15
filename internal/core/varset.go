package core

import "strings"

// NumVars is the number of canonical result variables (len(varOrder)).
const NumVars = 6

// Indexes into varOrder / the per-node variable arrays. The order is the
// evaluation order documented on varOrder.
const (
	idxCountObject = iota
	idxObjectSize
	idxTotalSize
	_ // TimeFirst
	idxTotalTime
	_ // TimeNext
)

// VarSet is a bitmask over the canonical result variables, indexed by
// position in varOrder. It replaces the map[string]bool need-sets of the
// estimation algorithm: closing a need-set under self-references and
// computing child requirements become pure bit operations.
type VarSet uint64

// allVarSet has every canonical variable present.
const allVarSet = VarSet(1<<NumVars - 1)

// Has reports whether variable index i is in the set.
func (s VarSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// With returns the set with variable index i added.
func (s VarSet) With(i int) VarSet { return s | 1<<uint(i) }

// Empty reports whether no variable is in the set.
func (s VarSet) Empty() bool { return s == 0 }

// varIndex resolves a name to its canonical variable index, matching
// case-insensitively like the paper's parameter references; -1 when the
// name is not a result variable.
func varIndex(name string) int {
	for i, v := range varOrder {
		if strings.EqualFold(v, name) {
			return i
		}
	}
	return -1
}

// varIndexExact resolves a name by exact match, the comparison rule
// formulas use for their assignment targets; -1 when unknown.
func varIndexExact(name string) int {
	for i, v := range varOrder {
		if v == name {
			return i
		}
	}
	return -1
}
