package discovery

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"lorm/internal/resource"
)

func testSchema() *resource.Schema {
	return resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 0, Max: 100},
		resource.Attribute{Name: "mem", Min: 0, Max: 100},
	)
}

func TestCostAddAndString(t *testing.T) {
	c := Cost{Hops: 1, Visited: 2, Messages: 3}
	c.Add(Cost{Hops: 10, Visited: 20, Messages: 30})
	if c.Hops != 11 || c.Visited != 22 || c.Messages != 33 {
		t.Fatalf("Add wrong: %+v", c)
	}
	if s := c.String(); !strings.Contains(s, "hops=11") {
		t.Fatalf("String = %q", s)
	}
}

func TestOracleRegisterDiscover(t *testing.T) {
	o := NewOracle(testSchema())
	for _, in := range []resource.Info{
		{Attr: "cpu", Value: 50, Owner: "a"},
		{Attr: "cpu", Value: 80, Owner: "b"},
		{Attr: "mem", Value: 60, Owner: "a"},
	} {
		if _, err := o.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	res, err := o.Discover(resource.Query{Subs: []resource.SubQuery{
		{Attr: "cpu", Low: 40, High: 70},
		{Attr: "mem", Low: 50, High: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Owners, []string{"a"}) {
		t.Fatalf("Owners = %v, want [a]", res.Owners)
	}
	if res.Cost != (Cost{}) {
		t.Fatalf("oracle cost should be zero, got %+v", res.Cost)
	}
}

func TestOracleValidates(t *testing.T) {
	o := NewOracle(testSchema())
	if _, err := o.Discover(resource.Query{}); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestOracleMetadata(t *testing.T) {
	o := NewOracle(testSchema())
	if o.Name() != "oracle" || o.NodeCount() != 1 || o.Schema().Len() != 2 {
		t.Fatal("oracle metadata wrong")
	}
	if _, err := o.Register(resource.Info{Attr: "cpu", Value: 1, Owner: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := o.DirectorySizes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DirectorySizes = %v", got)
	}
	if got := o.OutlinkCounts(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("OutlinkCounts = %v", got)
	}
}

func TestRunSubsMergesResults(t *testing.T) {
	q := resource.Query{Subs: []resource.SubQuery{
		{Attr: "cpu", Low: 1, High: 2},
		{Attr: "mem", Low: 3, High: 4},
	}}
	res, err := RunSubs(q, func(sub resource.SubQuery) ([]resource.Info, error) {
		return []resource.Info{{Attr: sub.Attr, Value: sub.Low, Owner: "shared"}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != (Cost{}) {
		t.Fatalf("RunSubs must not account cost (the routing op does), got %+v", res.Cost)
	}
	if !reflect.DeepEqual(res.Owners, []string{"shared"}) {
		t.Fatalf("Owners = %v", res.Owners)
	}
	if len(res.PerAttr) != 2 {
		t.Fatalf("PerAttr = %v", res.PerAttr)
	}
}

func TestRunSubsPropagatesError(t *testing.T) {
	q := resource.Query{Subs: []resource.SubQuery{
		{Attr: "cpu", Low: 1, High: 2},
		{Attr: "mem", Low: 3, High: 4},
	}}
	boom := errors.New("boom")
	_, err := RunSubs(q, func(sub resource.SubQuery) ([]resource.Info, error) {
		if sub.Attr == "mem" {
			return nil, boom
		}
		return nil, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// goroutineID reads the running goroutine's number off its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// The last sub-query runs on the caller's goroutine and the others each on
// their own, so a one-attribute query spawns nothing.
func TestRunSubsRunsLastSubOnCaller(t *testing.T) {
	for _, n := range []int{1, 3} {
		var q resource.Query
		for i := 0; i < n; i++ {
			q.Subs = append(q.Subs, resource.SubQuery{Attr: fmt.Sprint("a", i)})
		}
		caller := goroutineID()
		var onCaller atomic.Int32
		if _, err := RunSubs(q, func(sub resource.SubQuery) ([]resource.Info, error) {
			if same := goroutineID() == caller; same {
				onCaller.Add(1)
			} else if sub == q.Subs[n-1] {
				return nil, errors.New("the last sub-query ran on a goroutine of its own")
			}
			return nil, nil
		}); err != nil {
			t.Error(err)
		}
		if got := onCaller.Load(); got != 1 {
			t.Errorf("%d of %d sub-queries ran on the caller's goroutine, want 1", got, n)
		}
	}
}

func TestFinishJoins(t *testing.T) {
	res := &Result{PerAttr: map[string][]resource.Info{
		"cpu": {{Owner: "a"}, {Owner: "b"}},
		"mem": {{Owner: "b"}},
	}}
	Finish(res)
	if !reflect.DeepEqual(res.Owners, []string{"b"}) {
		t.Fatalf("Owners = %v", res.Owners)
	}
}
