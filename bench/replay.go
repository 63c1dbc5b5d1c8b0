package main

import (
	"fmt"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// replaySystem answers every request with the result a real system gave
// earlier, looked up by the op's requester or owner. A gateway fronting it
// carries frames of exactly the real sizes while doing no overlay or
// directory work, so a round trip through it is the transport's share of
// the real round trip.
type replaySystem struct {
	schema    *resource.Schema
	discovers map[string]*discovery.Result // by Query.Requester
	registers map[string]discovery.Cost    // by Info.Owner
}

func newReplaySystem(schema *resource.Schema) *replaySystem {
	return &replaySystem{
		schema:    schema,
		discovers: make(map[string]*discovery.Result),
		registers: make(map[string]discovery.Cost),
	}
}

var _ discovery.System = (*replaySystem)(nil)

func (r *replaySystem) Name() string             { return "replay" }
func (r *replaySystem) Schema() *resource.Schema { return r.schema }
func (r *replaySystem) NodeCount() int           { return 0 }
func (r *replaySystem) DirectorySizes() []int    { return nil }
func (r *replaySystem) OutlinkCounts() []int     { return nil }

func (r *replaySystem) Register(info resource.Info) (discovery.Cost, error) {
	cost, ok := r.registers[info.Owner]
	if !ok {
		return cost, fmt.Errorf("replay: no recorded register for owner %q", info.Owner)
	}
	return cost, nil
}

func (r *replaySystem) Discover(q resource.Query) (*discovery.Result, error) {
	res, ok := r.discovers[q.Requester]
	if !ok {
		return nil, fmt.Errorf("replay: no recorded discover for requester %q", q.Requester)
	}
	return res, nil
}
