// Package core implements LORM — the paper's primary contribution: a
// Low-Overhead Range-query Multi-attribute resource discovery service on a
// single hierarchical Cycloid DHT [9].
//
// LORM exploits Cycloid's two-level identifier space:
//
//   - the cubical index (which cluster) carries the consistent hash H of
//     the attribute name, so each cluster is the home of one attribute's
//     resource information;
//   - the cyclic index (which position inside the cluster) carries the
//     locality-preserving hash ℋ of the attribute value, so value order is
//     preserved inside the cluster and a range query resolves by walking a
//     handful of intra-cluster successors.
//
// A resource with attribute a and value δπ_a is announced under
// rescID = (ℋ(δπ_a), H(a)); a range query [π₁, π₂] routes to
// root(ℋ(π₁), H(a)) and walks successors until the node owning
// (ℋ(π₂), H(a)) answers — Proposition 3.1 guarantees every piece in the
// range lives on that contiguous run of nodes. Multi-attribute queries
// fan out sub-queries in parallel and join the answers on the owner
// address.
package core

import (
	"fmt"
	"log/slog"

	"lorm/internal/capability"
	"lorm/internal/cycloid"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/hashing"
	"lorm/internal/replication"
	"lorm/internal/resource"
	"lorm/internal/ring"
	"lorm/internal/routing"
)

// Config parameterizes a LORM deployment.
type Config struct {
	// D is the Cycloid dimension; the paper's operating point is 8
	// (capacity d·2^d = 2048 nodes).
	D int
	// Schema is the globally known attribute set.
	Schema *resource.Schema
	// Salt namespaces node identifiers when several overlays coexist.
	Salt string
	// Logger, when non-nil, receives structured replication lifecycle
	// events (hot-key promotion/demotion) at Debug level.
	Logger *slog.Logger
}

// System is a LORM deployment. The embedded capability base supplies the
// control-plane faces (churn, crashes, fault planes, replication,
// rebalancing) over the one Cycloid overlay; this package is the request
// path.
type System struct {
	*capability.Base[*cycloid.Node]
	schema   *resource.Schema
	overlay  *cycloid.Overlay
	clusters []uint64 // by schema index: H(attr) in the d-bit cube space, the attribute's cluster
	rep      *replication.Replicator
	fabric   *routing.Fabric
}

var (
	_ discovery.Traced     = (*System)(nil)
	_ discovery.Crashable  = (*System)(nil)
	_ discovery.NetAware   = (*System)(nil)
	_ discovery.Replicated = (*System)(nil)
	_ discovery.Balancer   = (*System)(nil)
	_ routing.Instrumented = (*System)(nil)
)

// New creates an empty LORM system; populate it with AddNodes,
// PopulateComplete, or protocol AddNode calls.
func New(cfg Config) (*System, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("core: config needs a schema")
	}
	ov, err := cycloid.New(cycloid.Config{D: cfg.D, Salt: cfg.Salt})
	if err != nil {
		return nil, err
	}
	rep := replication.NewReplicator(ov.Placement(), replication.WithLogger(cfg.Logger))
	base := capability.New("lorm", cfg.Schema, capability.Plane[*cycloid.Node]{
		Overlay: ov, Reps: []*replication.Replicator{rep}})
	return &System{
		Base:     base,
		schema:   cfg.Schema,
		overlay:  ov,
		clusters: hashing.AttributeKeys(ring.NewSpace(uint(cfg.D)), cfg.Schema),
		rep:      rep,
		fabric:   base.RoutingFabric(),
	}, nil
}

// AddNodes bulk-populates the overlay with the given node addresses.
func (s *System) AddNodes(addrs []string) error { return s.overlay.AddBulk(addrs) }

// PopulateComplete fills every identifier slot — the paper's n = d·2^d
// operating point.
func (s *System) PopulateComplete() error { return s.overlay.AddComplete() }

// Overlay exposes the underlying Cycloid for experiments and diagnostics.
func (s *System) Overlay() *cycloid.Overlay { return s.overlay }

// clusterOf returns the cubical index H(attr) — the home cluster of a
// schema attribute.
func (s *System) clusterOf(attr string) uint64 { return s.clusters[s.schema.Index(attr)] }

// cyclicOf returns the locality-preserving hash ℋ(value) quantized onto
// the cyclic index space [0, d): monotone in the value (so ranges map to
// runs of cyclic indices) and quantile-based when the attribute declares
// its value distribution (so cluster load stays balanced under skew).
func (s *System) cyclicOf(a resource.Attribute, v float64) int {
	k := int(a.Frac(v) * float64(s.overlay.D()))
	if k >= s.overlay.D() {
		k = s.overlay.D() - 1
	}
	return k
}

// RescID computes the two-level resource identifier (ℋ(value), H(attr))
// of Section III.
func (s *System) RescID(attr string, value float64) (cycloid.ID, error) {
	a, ok := s.schema.Lookup(attr)
	if !ok {
		return cycloid.ID{}, fmt.Errorf("core: unknown attribute %q", attr)
	}
	return cycloid.ID{K: s.cyclicOf(a, value), A: s.clusterOf(attr)}, nil
}

// Register implements discovery.System: it announces one piece of
// available-resource information via Insert(rescID, rescInfo), routing
// from the node nearest the announcing owner.
func (s *System) Register(info resource.Info) (discovery.Cost, error) {
	return s.RegisterTraced(info, discovery.TraceContext{})
}

// RegisterTraced implements discovery.Traced: Register parented under the
// caller's trace context.
func (s *System) RegisterTraced(info resource.Info, tc discovery.TraceContext) (cost discovery.Cost, err error) {
	if err := info.Validate(s.schema); err != nil {
		return cost, err
	}
	key, err := s.RescID(info.Attr, info.Value)
	if err != nil {
		return cost, err
	}
	from, err := s.overlay.NodeNear(info.Owner)
	if err != nil {
		return cost, err
	}
	op := s.fabric.BeginTraced(routing.OpRegister, info.Owner, tc)
	e := directory.Entry{Key: s.overlay.Pos(key), Info: info}
	route, err := s.overlay.InsertOp(op, from, key, e)
	if err != nil {
		op.Finish()
		return cost, err
	}
	// Replication extension: place copies on the root's ring successors
	// (and invalidate any hot-key promotion of the re-announced key-group).
	s.rep.Place(op, route.Root.Pos, e)
	return op.Finish(), nil
}

// Discover implements discovery.System. Sub-queries run in parallel; each
// routes to the root of its lower bound and, for ranges, walks
// intra-cluster successors until the owner of the upper bound has been
// consulted.
func (s *System) Discover(q resource.Query) (*discovery.Result, error) {
	return s.DiscoverTraced(q, discovery.TraceContext{})
}

// DiscoverTraced implements discovery.Traced: Discover parented under the
// caller's trace context.
func (s *System) DiscoverTraced(q resource.Query, tc discovery.TraceContext) (*discovery.Result, error) {
	if err := q.Validate(s.schema); err != nil {
		return nil, err
	}
	from, err := s.overlay.NodeNear(q.Requester)
	if err != nil {
		return nil, err
	}
	op := s.fabric.BeginTraced(routing.OpDiscover, q.Requester, tc)
	defer op.Finish()
	res, err := discovery.RunSubs(q, func(sub resource.SubQuery) ([]resource.Info, error) {
		return s.resolveSub(op, from, sub)
	})
	if err != nil {
		return nil, err
	}
	res.Cost = op.Cost()
	return res, nil
}

// resolveSub resolves one sub-query from the given start node, recording
// forwards and directory visits into the shared per-query op.
func (s *System) resolveSub(op *routing.Op, from *cycloid.Node, sub resource.SubQuery) ([]resource.Info, error) {
	a, _ := s.schema.Lookup(sub.Attr) // validated by Discover
	cluster := s.clusterOf(sub.Attr)
	loKey := cycloid.ID{K: s.cyclicOf(a, sub.Low), A: cluster}
	hiKey := cycloid.ID{K: s.cyclicOf(a, sub.High), A: cluster}

	// Replica-aware read: a single-key sub-query whose key-group is
	// hot-promoted routes to the power-of-two-choices holder instead of the
	// root; the losing candidate is probed (one ReasonReplicaRead forward),
	// keeping Messages = Hops + Visited exact. Keys without a promotion —
	// including everything while replication is off — take the unmodified
	// root-walk path below.
	if loKey == hiKey {
		if plan, ok := s.rep.PlanRead(s.overlay.Pos(loKey)); ok {
			route, err := s.overlay.LookupOp(op, from, s.overlay.IDOf(plan.Target.Pos))
			if err != nil {
				return nil, err
			}
			op.Visit(route.Root.Addr, route.Root.Pos)
			op.Forward(plan.Probe.Addr, plan.Probe.Pos, routing.ReasonReplicaRead)
			g := replication.NewGather()
			g.AddBatch(route.Root.Dir.MatchEntriesAppend(nil, sub.Attr, sub.Low, sub.High))
			return g.Infos(), nil
		}
	}

	route, err := s.overlay.LookupOp(op, from, loKey)
	if err != nil {
		return nil, err
	}
	cur := route.Root
	op.Visit(cur.Addr, cur.Pos)

	// With replicas in play the walk collects entries (keys included) into
	// a Gather that suppresses replica copies per logical entry; otherwise
	// matches append straight into the result, allocation-light.
	var (
		matches []resource.Info
		g       *replication.Gather
		ebuf    []directory.Entry
	)
	if s.rep.Active() {
		g = replication.NewGather()
	}
	collect := func(n *cycloid.Node) {
		if g != nil {
			ebuf = n.Dir.MatchEntriesAppend(ebuf[:0], sub.Attr, sub.Low, sub.High)
			g.AddBatch(ebuf)
			return
		}
		matches = n.Dir.MatchAppend(matches, sub.Attr, sub.Low, sub.High)
	}
	collect(cur)

	// Range walk: forward along intra-cluster successors until the walk's
	// cumulative progress through the key space covers the upper bound
	// (Proposition 3.1: all matching pieces live on this contiguous run of
	// nodes). Progress is accumulated rather than compared against node
	// ownership so intervals whose two bounds resolve to the same wrapped
	// owner still visit the run in between.
	target := s.overlay.CwDist(s.overlay.Pos(loKey), s.overlay.Pos(hiKey))
	covered := s.overlay.CwDist(s.overlay.Pos(loKey), cur.Pos)
	for covered < target {
		next, ok := s.overlay.NextNode(cur)
		if !ok || next == route.Root {
			break // single node, or full circle: everything consulted
		}
		covered += s.overlay.CwDist(cur.Pos, next.Pos)
		cur = next
		op.Forward(cur.Addr, cur.Pos, routing.ReasonRangeWalk)
		op.Visit(cur.Addr, cur.Pos)
		collect(cur)
	}
	if g != nil {
		return g.Infos(), nil
	}
	return matches, nil
}
