package resource

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAttributeValidate(t *testing.T) {
	cases := []struct {
		attr Attribute
		ok   bool
	}{
		{Attribute{Name: "cpu", Min: 0, Max: 3200}, true},
		{Attribute{Name: "", Min: 0, Max: 1}, false},
		{Attribute{Name: "x", Min: 1, Max: 1}, false},
		{Attribute{Name: "x", Min: 2, Max: 1}, false},
	}
	for _, c := range cases {
		err := c.attr.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) error=%v, want ok=%v", c.attr, err, c.ok)
		}
	}
}

func TestAttributeClamp(t *testing.T) {
	a := Attribute{Name: "mem", Min: 64, Max: 8192}
	if got := a.Clamp(10); got != 64 {
		t.Errorf("Clamp(10) = %v, want 64", got)
	}
	if got := a.Clamp(9000); got != 8192 {
		t.Errorf("Clamp(9000) = %v, want 8192", got)
	}
	if got := a.Clamp(1024); got != 1024 {
		t.Errorf("Clamp(1024) = %v, want 1024", got)
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema should error")
	}
	if _, err := NewSchema(Attribute{Name: "a", Min: 0, Max: 1}, Attribute{Name: "a", Min: 0, Max: 1}); err == nil {
		t.Error("duplicate attribute should error")
	}
	if _, err := NewSchema(Attribute{Name: "a", Min: 3, Max: 1}); err == nil {
		t.Error("invalid domain should error")
	}
}

func TestSchemaLookupAndOrder(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "cpu", Min: 100, Max: 3200},
		Attribute{Name: "mem", Min: 64, Max: 8192},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.At(0).Name != "cpu" || s.At(1).Name != "mem" {
		t.Fatalf("attribute order not stable: %v", s.Attributes())
	}
	if a, ok := s.Lookup("mem"); !ok || a.Max != 8192 {
		t.Fatalf("Lookup(mem) = %+v, %v", a, ok)
	}
	if _, ok := s.Lookup("disk"); ok {
		t.Fatal("Lookup(disk) should miss")
	}
	if s.Index("mem") != 1 || s.Index("nope") != -1 {
		t.Fatalf("Index wrong: mem=%d nope=%d", s.Index("mem"), s.Index("nope"))
	}
}

func TestSyntheticSchema(t *testing.T) {
	s := SyntheticSchema(200, 500)
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	a := s.At(57)
	if a.Name != "attr057" || a.Min != 0 || a.Max != 500 {
		t.Fatalf("At(57) = %+v", a)
	}
}

func TestSubQuery(t *testing.T) {
	exact := SubQuery{Attr: "cpu", Low: 1800, High: 1800}
	if exact.IsRange() {
		t.Error("exact query reported as range")
	}
	if !exact.Matches(1800) || exact.Matches(1801) {
		t.Error("exact match wrong")
	}
	rng := SubQuery{Attr: "cpu", Low: 1000, High: 1800}
	if !rng.IsRange() {
		t.Error("range query not reported as range")
	}
	for v, want := range map[float64]bool{999: false, 1000: true, 1500: true, 1800: true, 1801: false} {
		if got := rng.Matches(v); got != want {
			t.Errorf("Matches(%v) = %v, want %v", v, got, want)
		}
	}
	if got := rng.String(); got != "1000<=cpu<=1800" {
		t.Errorf("String() = %q", got)
	}
}

func TestQueryValidate(t *testing.T) {
	s := MustSchema(Attribute{Name: "cpu", Min: 100, Max: 3200})
	cases := []struct {
		q  Query
		ok bool
	}{
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: 1000, High: 1800}}}, true},
		{Query{}, false},
		{Query{Subs: []SubQuery{{Attr: "gpu", Low: 1, High: 2}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: 2, High: 1}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: 4000, High: 5000}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: 1000, High: 1100}, {Attr: "cpu", Low: 1, High: 2}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: math.NaN(), High: 1800}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: 1000, High: math.NaN()}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: math.NaN(), High: math.NaN()}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: math.Inf(-1), High: 1800}}}, false},
		{Query{Subs: []SubQuery{{Attr: "cpu", Low: 1000, High: math.Inf(1)}}}, false},
	}
	for i, c := range cases {
		err := c.q.Validate(s)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%v) error=%v, want ok=%v", i, c.q, err, c.ok)
		}
	}
}

func TestInfoValidate(t *testing.T) {
	s := MustSchema(Attribute{Name: "cpu", Min: 100, Max: 3200})
	for _, c := range []struct {
		in Info
		ok bool
	}{
		{Info{Attr: "cpu", Value: 1800, Owner: "a"}, true},
		{Info{Attr: "cpu", Value: 9000, Owner: "a"}, true}, // out of domain: clamped by the hashes
		{Info{Attr: "gpu", Value: 1, Owner: "a"}, false},
		{Info{Attr: "cpu", Value: math.NaN(), Owner: "a"}, false},
		{Info{Attr: "cpu", Value: math.Inf(1), Owner: "a"}, false},
		{Info{Attr: "cpu", Value: math.Inf(-1), Owner: "a"}, false},
	} {
		if err := c.in.Validate(s); (err == nil) != c.ok {
			t.Errorf("Validate(%v) error=%v, want ok=%v", c.in, err, c.ok)
		}
	}
}

func TestQueryIsRangeAndString(t *testing.T) {
	q := Query{Subs: []SubQuery{
		{Attr: "cpu", Low: 1800, High: 1800},
		{Attr: "mem", Low: 1024, High: 2048},
	}}
	if !q.IsRange() {
		t.Error("query with a range sub-query should be range")
	}
	if s := q.String(); !strings.Contains(s, " AND ") {
		t.Errorf("String() = %q, want AND-joined", s)
	}
	exact := Query{Subs: []SubQuery{{Attr: "cpu", Low: 1, High: 1}}}
	if exact.IsRange() {
		t.Error("all-exact query reported as range")
	}
}

func TestJoinOwners(t *testing.T) {
	perAttr := map[string][]Info{
		"cpu": {
			{Attr: "cpu", Value: 1800, Owner: "node-a"},
			{Attr: "cpu", Value: 2000, Owner: "node-b"},
			{Attr: "cpu", Value: 2000, Owner: "node-b"}, // duplicate piece
		},
		"mem": {
			{Attr: "mem", Value: 2048, Owner: "node-b"},
			{Attr: "mem", Value: 4096, Owner: "node-c"},
		},
	}
	if got := JoinOwners(perAttr); !reflect.DeepEqual(got, []string{"node-b"}) {
		t.Fatalf("JoinOwners = %v, want [node-b]", got)
	}
}

func TestJoinOwnersEdgeCases(t *testing.T) {
	if got := JoinOwners(nil); got != nil {
		t.Errorf("JoinOwners(nil) = %v, want nil", got)
	}
	one := map[string][]Info{"cpu": {{Owner: "z"}, {Owner: "a"}}}
	if got := JoinOwners(one); !reflect.DeepEqual(got, []string{"a", "z"}) {
		t.Errorf("single-attribute join = %v, want sorted owners", got)
	}
	disjoint := map[string][]Info{
		"cpu": {{Owner: "a"}},
		"mem": {{Owner: "b"}},
	}
	if got := JoinOwners(disjoint); len(got) != 0 {
		t.Errorf("disjoint join = %v, want empty", got)
	}
}

func TestInfoString(t *testing.T) {
	in := Info{Attr: "mem", Value: 2048, Owner: "10.0.0.7"}
	if got := in.String(); got != "<mem, 2048, 10.0.0.7>" {
		t.Errorf("String() = %q", got)
	}
}
