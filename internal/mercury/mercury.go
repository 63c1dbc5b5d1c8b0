// Package mercury implements the multi-DHT-based baseline of the paper,
// modeled on Mercury (Bharambe, Agrawal, Seshan [2]): one DHT "hub" per
// resource attribute, with the attribute's value — through the
// locality-preserving hash — as the key inside its hub. Per the paper's
// comparative setup the hubs are Chord rings, every physical node joins
// every hub, and the pointer-record optimization is disabled.
//
// Range queries route to the hub node owning the range's lower bound and
// walk ring successors until the upper bound's owner has answered; because
// an attribute's values spread over the hub's whole ring, a range covering
// a fraction f of the value domain visits about f·n nodes — the n/4
// average-case term of Theorem 4.9.
package mercury

import (
	"fmt"
	"log/slog"
	"sort"

	"lorm/internal/capability"
	"lorm/internal/chord"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/hashing"
	"lorm/internal/replication"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// Config parameterizes a Mercury deployment.
type Config struct {
	// Bits is the identifier width of every hub ring (default 20).
	Bits uint
	// SuccListLen is each hub's successor-list length.
	SuccListLen int
	// Schema is the globally known attribute set; one hub is created per
	// attribute.
	Schema *resource.Schema
	// Logger, when non-nil, receives structured replication lifecycle
	// events (hot-key promotion/demotion) at Debug level.
	Logger *slog.Logger
}

// System is a Mercury deployment: m parallel Chord hubs. The embedded
// capability base runs every control-plane operation hub by hub — a
// physical node joins, leaves and crashes in all hubs at once, and each hub
// replicates and rebalances inside its own ring, so a node's replica
// neighbors differ per attribute exactly as its routing neighbors do.
// Mercury overrides only the samples that must aggregate a physical node's
// per-hub state (DirectorySizes, OutlinkCounts, DirectoryLoads, NodeAddrs).
type System struct {
	*capability.Base[*chord.Node]
	schema *resource.Schema
	fabric *routing.Fabric
	hubs   []*chord.Ring             // parallel to schema order
	lph    []hashing.Locality        // per-attribute value hash
	reps   []*replication.Replicator // per-hub replica management
}

var (
	_ discovery.Traced     = (*System)(nil)
	_ discovery.Crashable  = (*System)(nil)
	_ discovery.NetAware   = (*System)(nil)
	_ discovery.Replicated = (*System)(nil)
	_ discovery.Balancer   = (*System)(nil)
	_ routing.Instrumented = (*System)(nil)
)

// New creates an empty Mercury system with one hub per schema attribute.
func New(cfg Config) (*System, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("mercury: config needs a schema")
	}
	if cfg.Bits == 0 {
		cfg.Bits = 20
	}
	s := &System{schema: cfg.Schema}
	var planes []capability.Plane[*chord.Node]
	for _, a := range cfg.Schema.Attributes() {
		hub := chord.New(chord.Config{Bits: cfg.Bits, SuccListLen: cfg.SuccListLen, Salt: "hub:" + a.Name})
		rep := replication.NewReplicator(hub.Placement(), replication.WithLogger(cfg.Logger))
		s.hubs = append(s.hubs, hub)
		s.lph = append(s.lph, hashing.NewLocalityFrom(hub.Space(), a))
		s.reps = append(s.reps, rep)
		planes = append(planes, capability.Plane[*chord.Node]{Overlay: hub, Reps: []*replication.Replicator{rep}})
	}
	s.Base = capability.New("mercury", cfg.Schema, planes...)
	s.fabric = s.RoutingFabric()
	return s, nil
}

// AddNodes bulk-populates every hub with the given physical addresses.
func (s *System) AddNodes(addrs []string) error {
	live := make(map[string]bool, len(addrs))
	for _, addr := range s.hubs[0].Addrs() {
		live[addr] = true
	}
	for _, addr := range addrs {
		if live[addr] {
			return fmt.Errorf("mercury: duplicate address %q", addr)
		}
		live[addr] = true
	}
	for _, hub := range s.hubs {
		if err := hub.AddBulk(addrs); err != nil {
			return err
		}
	}
	return nil
}

// hubOf returns the hub index for an attribute, or -1.
func (s *System) hubOf(attr string) int { return s.schema.Index(attr) }

// Register implements discovery.System: one insert, into the attribute's
// hub, keyed by the locality-preserving hash of the value.
func (s *System) Register(info resource.Info) (discovery.Cost, error) {
	return s.RegisterTraced(info, discovery.TraceContext{})
}

// RegisterTraced implements discovery.Traced: Register parented under the
// caller's trace context.
func (s *System) RegisterTraced(info resource.Info, tc discovery.TraceContext) (cost discovery.Cost, err error) {
	if err := info.Validate(s.schema); err != nil {
		return cost, err
	}
	h := s.hubOf(info.Attr)
	hub := s.hubs[h]
	key := s.lph[h].Hash(info.Value)
	from, err := hub.NodeNear(info.Owner)
	if err != nil {
		return cost, err
	}
	op := s.fabric.BeginTraced(routing.OpRegister, info.Owner, tc)
	e := directory.Entry{Key: key, Info: info}
	route, err := hub.InsertOp(op, from, key, e)
	if err != nil {
		op.Finish()
		return cost, err
	}
	// Replication extension: copies go on the hub root's ring successors,
	// and a re-announce invalidates any hot-key promotion of the key-group.
	s.reps[h].Place(op, route.Root.ID, e)
	return op.Finish(), nil
}

// Discover implements discovery.System: each sub-query resolves in its own
// hub, in parallel, and the results join on the owner address.
func (s *System) Discover(q resource.Query) (*discovery.Result, error) {
	return s.DiscoverTraced(q, discovery.TraceContext{})
}

// DiscoverTraced implements discovery.Traced: Discover parented under the
// caller's trace context.
func (s *System) DiscoverTraced(q resource.Query, tc discovery.TraceContext) (*discovery.Result, error) {
	if err := q.Validate(s.schema); err != nil {
		return nil, err
	}
	op := s.fabric.BeginTraced(routing.OpDiscover, q.Requester, tc)
	defer op.Finish()
	res, err := discovery.RunSubs(q, func(sub resource.SubQuery) ([]resource.Info, error) {
		return s.resolveSub(op, q.Requester, sub)
	})
	if err != nil {
		return nil, err
	}
	res.Cost = op.Cost()
	return res, nil
}

func (s *System) resolveSub(op *routing.Op, requester string, sub resource.SubQuery) ([]resource.Info, error) {
	h := s.hubOf(sub.Attr)
	hub := s.hubs[h]
	loKey := s.lph[h].Hash(sub.Low)
	hiKey := s.lph[h].Hash(sub.High)

	from, err := hub.NodeNear(requester)
	if err != nil {
		return nil, err
	}

	// Replica-aware read: an exact sub-query on a hot-promoted key-group
	// routes to the power-of-two-choices holder instead of the hub root,
	// probing the losing candidate (one ReasonReplicaRead forward). Keys
	// without a promotion take the unmodified root-walk path below.
	if loKey == hiKey {
		if plan, ok := s.reps[h].PlanRead(loKey); ok {
			route, err := hub.LookupOp(op, from, plan.Target.Pos)
			if err != nil {
				return nil, err
			}
			op.Visit(route.Root.Addr, route.Root.ID)
			op.Forward(plan.Probe.Addr, plan.Probe.Pos, routing.ReasonReplicaRead)
			g := replication.NewGather()
			g.AddBatch(route.Root.Dir.MatchEntriesAppend(nil, sub.Attr, sub.Low, sub.High))
			return g.Infos(), nil
		}
	}

	route, err := hub.LookupOp(op, from, loKey)
	if err != nil {
		return nil, err
	}
	cur := route.Root
	op.Visit(cur.Addr, cur.ID)

	// With replicas in play the walk collects entries into a Gather that
	// suppresses replica copies per logical entry; otherwise matches append
	// straight into the result, allocation-light.
	var (
		matches []resource.Info
		g       *replication.Gather
		ebuf    []directory.Entry
	)
	if s.reps[h].Active() {
		g = replication.NewGather()
	}
	collect := func(n *chord.Node) {
		if g != nil {
			ebuf = n.Dir.MatchEntriesAppend(ebuf[:0], sub.Attr, sub.Low, sub.High)
			g.AddBatch(ebuf)
			return
		}
		matches = n.Dir.MatchAppend(matches, sub.Attr, sub.Low, sub.High)
	}
	collect(cur)

	// Range walk across the hub ring, tracking cumulative progress through
	// the key interval so wrapped intervals terminate correctly.
	space := hub.Space()
	target := space.Clockwise(loKey, hiKey)
	covered := space.Clockwise(loKey, cur.ID)
	for covered < target {
		next, ok := hub.NextNode(cur)
		if !ok || next == route.Root {
			break // full circle: every node already consulted
		}
		covered += space.Clockwise(cur.ID, next.ID)
		cur = next
		op.Forward(cur.Addr, cur.ID, routing.ReasonRangeWalk)
		op.Visit(cur.Addr, cur.ID)
		collect(cur)
	}
	if g != nil {
		return g.Infos(), nil
	}
	return matches, nil
}

// DirectoryLoads overrides the base: a physical node's load is the union
// of its per-hub directories, in sorted address order.
func (s *System) DirectoryLoads() []discovery.NodeLoad {
	totals := make(map[string]int)
	for _, hub := range s.hubs {
		for _, n := range hub.Nodes() {
			totals[n.Addr] += n.Dir.Len()
		}
	}
	out := make([]discovery.NodeLoad, 0, len(totals))
	for addr, entries := range totals {
		out = append(out, discovery.NodeLoad{Addr: addr, Entries: entries})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// DirectorySizes overrides the base with the same per-physical-node
// aggregation as DirectoryLoads.
func (s *System) DirectorySizes() []int {
	loads := s.DirectoryLoads()
	out := make([]int, len(loads))
	for i, l := range loads {
		out[i] = l.Entries
	}
	return out
}

// OutlinkCounts overrides the base: a physical node maintains the union of
// its per-hub routing tables — the m·log n structure overhead of Theorem
// 4.1.
func (s *System) OutlinkCounts() []int {
	totals := make(map[string]int)
	for _, hub := range s.hubs {
		for _, n := range hub.Nodes() {
			totals[n.Addr] += hub.OutlinkCount(n)
		}
	}
	out := make([]int, 0, len(totals))
	for _, v := range totals {
		out = append(out, v)
	}
	return out
}

// NodeAddrs overrides the base, whose first-hub ring order would make churn
// victim selection depend on hub 0's hash: physical addresses, sorted.
func (s *System) NodeAddrs() []string {
	out := s.hubs[0].Addrs()
	sort.Strings(out)
	return out
}

// Hub exposes one attribute's hub ring, for experiments and tests.
func (s *System) Hub(attr string) (*chord.Ring, bool) {
	h := s.hubOf(attr)
	if h < 0 {
		return nil, false
	}
	return s.hubs[h], true
}
