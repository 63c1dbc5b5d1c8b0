// Package hashing implements the two hash functions the paper's systems are
// built on:
//
//   - H, a consistent hash (SHA-1 based, per Karger et al. [5]) used for
//     attribute names and node addresses. It spreads keys uniformly over an
//     identifier ring.
//   - ℋ (Locality), a locality-preserving hash (per MAAN [3]) used for
//     attribute values. It maps a value domain [min, max] linearly onto the
//     identifier space, so the numeric order of values is preserved by the
//     order of their identifiers — the property that makes successor walks
//     resolve range queries.
package hashing

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"

	"lorm/internal/resource"
	"lorm/internal/ring"
)

// Consistent hashes an arbitrary string key uniformly onto the given ring
// using SHA-1, the classic consistent-hashing construction. It is
// deterministic across runs and processes.
func Consistent(s ring.Space, key string) uint64 {
	sum := sha1.Sum([]byte(key))
	return s.Fold(binary.BigEndian.Uint64(sum[:8]))
}

// AttributeKeys returns H(name) for every attribute of a schema, by schema
// index. A schema never changes, so a system hashes its attributes once, at
// construction, instead of on every sub-query.
func AttributeKeys(s ring.Space, schema *resource.Schema) []uint64 {
	keys := make([]uint64, schema.Len())
	for i, a := range schema.Attributes() {
		keys[i] = Consistent(s, a.Name)
	}
	return keys
}

// ConsistentN derives the i-th independent hash of key, used when one
// physical entity needs distinct identifiers in several hash spaces (for
// example a node joining every Mercury hub).
func ConsistentN(s ring.Space, key string, i int) uint64 {
	return Consistent(s, fmt.Sprintf("%s#%d", key, i))
}

// Locality is a locality-preserving hash for one attribute's value domain.
// Values at or below Min map to identifier 0, values at or above Max map to
// the top of the ring, and the mapping is monotone in between: linear by
// default, or quantile-based (MAAN's "uniform locality preserving hashing")
// when built from an attribute that declares its value distribution.
type Locality struct {
	space    ring.Space
	min, max float64
	frac     func(v float64) float64 // nil = linear
	quantile func(f float64) float64 // nil = linear
}

// NewLocality builds a locality-preserving hash over [min, max] on the given
// ring. It panics when min >= max: value domains are static attribute
// metadata, so an inverted domain is a configuration bug.
func NewLocality(s ring.Space, min, max float64) Locality {
	if !(min < max) {
		panic(fmt.Sprintf("hashing: invalid value domain [%v, %v]", min, max))
	}
	return Locality{space: s, min: min, max: max}
}

// Space returns the ring the hash maps into.
func (l Locality) Space() ring.Space { return l.space }

// Min returns the lower bound of the value domain.
func (l Locality) Min() float64 { return l.min }

// Max returns the upper bound of the value domain.
func (l Locality) Max() float64 { return l.max }

// NewLocalityFrom builds a locality hash for an attribute, honoring its
// distribution-aware CDF when one is declared (so storage load stays
// uniform under skewed value distributions) and falling back to the linear
// mapping otherwise.
func NewLocalityFrom(s ring.Space, a resource.Attribute) Locality {
	l := NewLocality(s, a.Min, a.Max)
	if a.CDF != nil {
		l.frac = a.Frac
		l.quantile = a.Quantile
	}
	return l
}

// Hash maps a value onto the ring, clamping to the domain bounds.
func (l Locality) Hash(v float64) uint64 {
	if l.frac != nil {
		return l.space.Scale(l.frac(v))
	}
	return l.space.Scale((v - l.min) / (l.max - l.min))
}

// Value approximately inverts Hash, mapping an identifier back to the value
// it represents. Useful for diagnostics and tests.
func (l Locality) Value(id uint64) float64 {
	f := l.space.Fraction(id)
	if l.quantile != nil {
		return l.quantile(f)
	}
	return l.min + f*(l.max-l.min)
}
