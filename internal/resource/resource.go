// Package resource defines the grid resource model of the paper: attributes
// with globally known types and value domains, resource information 3-tuples
// ⟨a, δπ_a, ip_addr⟩, and multi-attribute range queries.
package resource

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Attribute describes one globally known resource attribute type, e.g.
// "cpu" in MHz over [100, 3200] or "memory" in MB over [64, 8192]. Min and
// Max bound the value domain used by the locality-preserving hash.
//
// CDF, when set, is the (strictly monotone) cumulative distribution of the
// attribute's values. The locality-preserving hash then maps a value to
// its quantile rather than to its linear position — MAAN's "uniform
// locality preserving hashing" — so storage load stays balanced under
// skewed value distributions. A nil CDF means linear mapping.
type Attribute struct {
	Name string
	Min  float64
	Max  float64
	CDF  func(v float64) float64
}

// Frac maps a value to its position in [0, 1] within the domain: the
// quantile when a CDF is configured, the linear position otherwise. It is
// monotone in v — the property every range walk depends on.
func (a Attribute) Frac(v float64) float64 {
	v = a.Clamp(v)
	var f float64
	if a.CDF != nil {
		f = a.CDF(v)
	} else {
		f = (v - a.Min) / (a.Max - a.Min)
	}
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Quantile inverts Frac: it returns the value at position f ∈ [0, 1] of
// the domain. With a CDF it bisects (Frac is monotone); without one it is
// the linear interpolation.
func (a Attribute) Quantile(f float64) float64 {
	if f <= 0 {
		return a.Min
	}
	if f >= 1 {
		return a.Max
	}
	if a.CDF == nil {
		return a.Min + f*(a.Max-a.Min)
	}
	lo, hi := a.Min, a.Max
	for i := 0; i < 64 && hi-lo > 1e-12*(a.Max-a.Min); i++ {
		mid := lo + (hi-lo)/2
		if a.Frac(mid) < f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// Validate reports whether the attribute is well formed.
func (a Attribute) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("resource: attribute with empty name")
	}
	if !(a.Min < a.Max) {
		return fmt.Errorf("resource: attribute %q has invalid domain [%v, %v]", a.Name, a.Min, a.Max)
	}
	return nil
}

// Clamp restricts v to the attribute's value domain.
func (a Attribute) Clamp(v float64) float64 {
	if v < a.Min {
		return a.Min
	}
	if v > a.Max {
		return a.Max
	}
	return v
}

// Schema is the globally known set of attribute types, as assumed by the
// paper ("each resource is described by a set of attributes with globally
// known types"). Attribute order is stable: by insertion.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. Duplicate names or
// invalid domains are reported as errors.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(attrs))}
	for _, a := range attrs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("resource: duplicate attribute %q", a.Name)
		}
		s.index[a.Name] = len(s.attrs)
		s.attrs = append(s.attrs, a)
	}
	if len(s.attrs) == 0 {
		return nil, fmt.Errorf("resource: schema must declare at least one attribute")
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and examples.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// SyntheticSchema generates m attributes named attr000..attr(m-1), each with
// the value domain [0, span). It reproduces the paper's synthetic workload
// of m = 200 attribute types.
func SyntheticSchema(m int, span float64) *Schema {
	attrs := make([]Attribute, m)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("attr%03d", i), Min: 0, Max: span}
	}
	return MustSchema(attrs...)
}

// Len returns the number of attributes m.
func (s *Schema) Len() int { return len(s.attrs) }

// Attributes returns the attributes in stable order. The returned slice is
// shared; callers must not modify it.
func (s *Schema) Attributes() []Attribute { return s.attrs }

// At returns the i-th attribute.
func (s *Schema) At(i int) Attribute { return s.attrs[i] }

// Lookup finds an attribute by name.
func (s *Schema) Lookup(name string) (Attribute, bool) {
	i, ok := s.index[name]
	if !ok {
		return Attribute{}, false
	}
	return s.attrs[i], true
}

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// Info is one piece of resource information: the paper's 3-tuple
// ⟨a, δπ_a, ip_addr(i)⟩ announcing that node Owner has Value of attribute
// Attr available.
type Info struct {
	Attr  string
	Value float64
	Owner string
}

func (in Info) String() string {
	return fmt.Sprintf("<%s, %g, %s>", in.Attr, in.Value, in.Owner)
}

// Validate checks an announcement against a schema: a known attribute and
// a finite value. Out-of-domain values are legal; the hashes clamp them.
func (in Info) Validate(s *Schema) error {
	if _, ok := s.Lookup(in.Attr); !ok {
		return fmt.Errorf("resource: info on unknown attribute %q", in.Attr)
	}
	if !finite(in.Value) {
		return fmt.Errorf("resource: info %v has a non-finite value", in)
	}
	return nil
}

// finite rejects NaN and ±Inf. NaN fails every comparison, so it would slip
// through the bound checks below and reach the hashes as int(NaN·d); a
// binary wire carries it, so it has to be refused here.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SubQuery is a query over one attribute. Low == High expresses an exact
// (non-range) query; Low < High expresses the range [Low, High], matching
// the paper's "1GHz ≤ CPU ≤ 1.8GHz" form.
type SubQuery struct {
	Attr string
	Low  float64
	High float64
}

// IsRange reports whether the sub-query covers more than a single value.
func (q SubQuery) IsRange() bool { return q.Low < q.High }

// Matches reports whether a value satisfies the sub-query.
func (q SubQuery) Matches(v float64) bool { return v >= q.Low && v <= q.High }

func (q SubQuery) String() string {
	if q.IsRange() {
		return fmt.Sprintf("%g<=%s<=%g", q.Low, q.Attr, q.High)
	}
	return fmt.Sprintf("%s=%g", q.Attr, q.Low)
}

// Query is a multi-attribute resource query: a set of sub-queries, one per
// attribute, resolved in parallel and joined on the owner address.
type Query struct {
	Subs      []SubQuery
	Requester string // ip_addr(j) of the requesting node
}

// Validate checks the query against a schema: every sub-query must name a
// known attribute (at most once) with a finite, non-empty in-domain interval.
func (q Query) Validate(s *Schema) error {
	if len(q.Subs) == 0 {
		return fmt.Errorf("resource: empty query")
	}
	seen := make(map[string]bool, len(q.Subs))
	for _, sub := range q.Subs {
		a, ok := s.Lookup(sub.Attr)
		if !ok {
			return fmt.Errorf("resource: query on unknown attribute %q", sub.Attr)
		}
		if seen[sub.Attr] {
			return fmt.Errorf("resource: duplicate sub-query for attribute %q", sub.Attr)
		}
		seen[sub.Attr] = true
		if !finite(sub.Low) || !finite(sub.High) {
			return fmt.Errorf("resource: sub-query %v has a non-finite bound", sub)
		}
		if sub.Low > sub.High {
			return fmt.Errorf("resource: sub-query %v has inverted bounds", sub)
		}
		if sub.High < a.Min || sub.Low > a.Max {
			return fmt.Errorf("resource: sub-query %v outside domain [%v, %v]", sub, a.Min, a.Max)
		}
	}
	return nil
}

// IsRange reports whether any sub-query is a range.
func (q Query) IsRange() bool {
	for _, sub := range q.Subs {
		if sub.IsRange() {
			return true
		}
	}
	return false
}

func (q Query) String() string {
	parts := make([]string, len(q.Subs))
	for i, sub := range q.Subs {
		parts[i] = sub.String()
	}
	return strings.Join(parts, " AND ")
}

// JoinOwners performs the database-like "join" operation of the paper: it
// intersects the owner sets of each attribute's matches, returning the
// addresses of nodes that satisfy every sub-query, sorted for determinism.
func JoinOwners(perAttr map[string][]Info) []string {
	if len(perAttr) == 0 {
		return nil
	}
	var counts map[string]int
	first := true
	for _, infos := range perAttr {
		owners := make(map[string]bool, len(infos))
		for _, in := range infos {
			owners[in.Owner] = true
		}
		if first {
			counts = make(map[string]int, len(owners))
			for o := range owners {
				counts[o] = 1
			}
			first = false
			continue
		}
		for o := range owners {
			if _, ok := counts[o]; ok {
				counts[o]++
			}
		}
	}
	need := len(perAttr)
	var joined []string
	for o, c := range counts {
		if c == need {
			joined = append(joined, o)
		}
	}
	sort.Strings(joined)
	return joined
}
