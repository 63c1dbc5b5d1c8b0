// Package art implements ART (Sioutas et al.), the fifth system of the
// comparison and the only one off the paper's O(log n) frontier: a
// decentralized trie (LRT-style) over the attribute value space with
// sub-logarithmic range-query routing.
//
// The identifier ring is partitioned into a fixed trie: level t splits the
// space into clusters sharing their top cum[t] bits, with level widths
// doubling from 2 (capped at 8), so the trie bottoms out in O(log_b log K)
// levels. Every cluster has a representative — the ring successor of the
// cluster's low bound — and each node conceptually keeps, per level of its
// own root-to-leaf path, lateral links to the representatives of the
// sibling clusters. Routing a key descends the trie: each hop jumps to the
// representative of the next-deeper cluster containing the key, so a
// lookup takes at most L = O(log log K) trie hops instead of Chord's
// O(log n) finger halvings. Lateral ring successor links then resolve
// ranges exactly like the other value-spreading systems: walk successors
// until the queried key interval is covered.
//
// The descent routes over a deliberately STALE membership snapshot,
// rebuilt only on bulk population, Maintain and rebalance — exactly the
// currency a real trie's cached representative links would have. Every hop
// is validated against fresh membership (liveness and reachability) and
// ownership is confirmed at the terminal node; any staleness — a dead
// representative, a post-join ownership move, a post-rebalance boundary
// shift — falls back to the underlying Chord lookup, which handles
// detours, unreachability and crashed-root retries honestly. Trie-descent
// hops are recorded with routing.ReasonTrieDescent ('t' in trace lines),
// so Messages = Hops + Visited holds by construction and the
// sub-logarithmic hop count is visible per-reason in metrics and traces.
//
// Value placement uses per-attribute sectors: attribute i of m owns the
// contiguous key sector [i/m, (i+1)/m) of the ring and a value maps into
// the sector by its distribution quantile. Order is preserved within every
// attribute — the property range walks need — while attributes spread over
// disjoint sectors instead of interleaving over the whole ring.
package art

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sync/atomic"

	"lorm/internal/capability"
	"lorm/internal/chord"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/replication"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// Config parameterizes an ART deployment.
type Config struct {
	// Bits is the identifier width of the underlying ring (default 20).
	Bits uint
	// SuccListLen is the successor-list length.
	SuccListLen int
	// Schema is the globally known attribute set.
	Schema *resource.Schema
	// Logger, when non-nil, receives structured replication lifecycle
	// events (hot-key promotion/demotion) at Debug level.
	Logger *slog.Logger
	// FingerRng, when non-nil, enables ReCord-style randomized finger
	// selection on the fallback ring (see chord.Config.FingerRng). The trie
	// descent itself uses no fingers; the setting only affects lookups that
	// fall back.
	FingerRng *rand.Rand
}

// System is an ART deployment: a trie-descent router layered over one
// Chord ring, which provides membership, value buckets (per-node
// directories), successor links for range walks, crash semantics and
// replica placement. The embedded capability base supplies the
// control-plane faces over the ring; ART overrides the three that must keep
// the trie view honest (AddNode, Maintain, Rebalance) and OutlinkCounts,
// which counts trie links rather than fingers.
type System struct {
	*capability.Base[*chord.Node]
	schema *resource.Schema
	ring   *chord.Ring
	fabric *routing.Fabric
	rep    *replication.Replicator
	geo    trieGeometry

	// view is the stale membership snapshot the trie descent routes over;
	// refreshed by rebuilds only, never by individual joins or crashes (a
	// crashed node stays listed until Maintain — descent hops detect the
	// dead representative against fresh membership and fall back).
	view atomic.Pointer[trieView]
}

var (
	_ discovery.Traced     = (*System)(nil)
	_ discovery.Crashable  = (*System)(nil)
	_ discovery.NetAware   = (*System)(nil)
	_ discovery.Replicated = (*System)(nil)
	_ discovery.Balancer   = (*System)(nil)
	_ routing.Instrumented = (*System)(nil)
)

// New creates an empty ART system.
func New(cfg Config) (*System, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("art: config needs a schema")
	}
	r := chord.New(chord.Config{Bits: cfg.Bits, SuccListLen: cfg.SuccListLen, Salt: "art", FingerRng: cfg.FingerRng})
	// ART stores each piece once, under its value key, so one unfiltered
	// replicator over the ring's Placement protects everything.
	rep := replication.NewReplicator(r.Placement(), replication.WithLogger(cfg.Logger))
	base := capability.New("art", cfg.Schema, capability.Plane[*chord.Node]{
		Overlay: r, Reps: []*replication.Replicator{rep}})
	return &System{
		Base:   base,
		schema: cfg.Schema,
		ring:   r,
		fabric: base.RoutingFabric(),
		rep:    rep,
		geo:    newGeometry(r.Space().Bits()),
	}, nil
}

// AddNodes bulk-populates the ring and rebuilds the trie view.
func (s *System) AddNodes(addrs []string) error {
	if err := s.ring.AddBulk(addrs); err != nil {
		return err
	}
	s.rebuildView()
	return nil
}

// Ring exposes the underlying Chord ring for experiments and tests.
func (s *System) Ring() *chord.Ring { return s.ring }

// Geometry describes the trie levels, for tests and diagnostics: the
// per-level prefix widths in bits.
func (s *System) Geometry() []uint { return append([]uint(nil), s.geo.widths...) }

// rebuildView publishes a fresh trie membership snapshot.
func (s *System) rebuildView() {
	s.view.Store(&trieView{nodes: s.ring.Nodes()})
	mTrieRebuilds.Inc()
}

// valueKey maps an attribute value into the attribute's key sector:
// attribute i of m owns [i/m, (i+1)/m) of the ring and the value lands at
// its distribution quantile within the sector. Monotone per attribute, so
// a value range is a contiguous (never wrapping) key interval.
func (s *System) valueKey(idx int, v float64) uint64 {
	m := s.schema.Len()
	f := (float64(idx) + s.schema.At(idx).Frac(v)) / float64(m)
	return s.ring.Space().Scale(f)
}

// route resolves the bucket node responsible for key: trie descent over the
// stale view, each hop validated against fresh membership, with the ring
// lookup as the staleness fallback. It returns a node that owned key in a
// fresh view at resolution time.
func (s *System) route(op *routing.Op, from *chord.Node, key uint64) (*chord.Node, error) {
	cur := from
	if view := s.view.Load(); view != nil {
		// The descent deepens the shared prefix by at least one level per
		// hop, so levels()+1 iterations suffice; anything longer means the
		// view is stale and the fallback finishes the job.
		for i := 0; i <= s.geo.levels(); i++ {
			if s.ring.Alive(cur) && s.ring.Owns(cur, key) {
				return cur, nil
			}
			d := s.geo.sharedDepth(cur.ID, key)
			if d >= s.geo.levels() {
				break
			}
			rep := view.successor(s.geo.childLo(key, d+1))
			if rep == nil || rep.ID == cur.ID || !s.ring.Alive(rep) || !s.ring.Reachable(cur, rep) {
				break
			}
			op.Forward(rep.Addr, rep.ID, routing.ReasonTrieDescent)
			mDescentSteps.Inc()
			cur = rep
		}
	}
	// Stale view could not complete the descent (dead representative,
	// moved ownership, or an empty/unbuilt view): the Chord lookup finishes
	// honestly, with detour accounting and crashed-root retries.
	mDescentFallbacks.Inc()
	if !s.ring.Alive(cur) {
		cur = from
	}
	route, err := s.ring.LookupOp(op, cur, key)
	if err != nil {
		return nil, err
	}
	return route.Root, nil
}

// Register implements discovery.System: one trie-routed insert under the
// value key, plus replica placement.
func (s *System) Register(info resource.Info) (discovery.Cost, error) {
	return s.RegisterTraced(info, discovery.TraceContext{})
}

// RegisterTraced implements discovery.Traced: Register parented under the
// caller's trace context.
func (s *System) RegisterTraced(info resource.Info, tc discovery.TraceContext) (cost discovery.Cost, err error) {
	if err := info.Validate(s.schema); err != nil {
		return cost, err
	}
	idx := s.schema.Index(info.Attr)
	from, err := s.ring.NodeNear(info.Owner)
	if err != nil {
		return cost, err
	}
	op := s.fabric.BeginTraced(routing.OpRegister, info.Owner, tc)
	key := s.valueKey(idx, info.Value)
	e := directory.Entry{Key: key, Info: info}
	owner, err := s.route(op, from, key)
	if err != nil {
		op.Finish()
		return cost, err
	}
	owner.Dir.Add(e)
	// Crash protection replicates the bucket entry onto the root's ring
	// successors (and invalidates any hot promotion of the key-group).
	s.rep.Place(op, owner.ID, e)
	return op.Finish(), nil
}

// Discover implements discovery.System: every sub-query descends the trie
// to the low end of its key interval and, for ranges, walks lateral
// successor links until the interval is covered.
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
	idx := s.schema.Index(sub.Attr)
	from, err := s.ring.NodeNear(requester)
	if err != nil {
		return nil, err
	}

	// With replicas in play the walk collects entries into a Gather that
	// suppresses replica copies per logical entry; otherwise every piece is
	// stored once and matches append straight into the result — a resource
	// announced twice is returned twice, as the oracle does.
	var (
		matches []resource.Info
		g       *replication.Gather
		ebuf    []directory.Entry
	)
	if s.rep.Active() {
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
	result := func() []resource.Info {
		if g != nil {
			return g.Infos()
		}
		return matches
	}

	loKey := s.valueKey(idx, sub.Low)
	hiKey := s.valueKey(idx, sub.High)
	// An exact sub-query on a hot-promoted key-group reads replica-aware:
	// descend to the chosen holder, probe the loser power-of-two style.
	if loKey == hiKey {
		if plan, ok := s.rep.PlanRead(loKey); ok {
			n, err := s.route(op, from, plan.Target.Pos)
			if err != nil {
				return nil, err
			}
			op.Visit(n.Addr, n.ID)
			op.Forward(plan.Probe.Addr, plan.Probe.Pos, routing.ReasonReplicaRead)
			collect(n)
			return result(), nil
		}
	}
	root, err := s.route(op, from, loKey)
	if err != nil {
		return nil, err
	}
	op.Visit(root.Addr, root.ID)
	cur := root
	collect(cur)
	// Lateral range walk along successor links, terminating on cumulative
	// progress: the sector mapping keeps [loKey, hiKey] contiguous, so the
	// walk covers exactly the buckets of the queried value interval.
	space := s.ring.Space()
	target := space.Clockwise(loKey, hiKey)
	covered := space.Clockwise(loKey, cur.ID)
	for covered < target {
		next, ok := s.ring.NextNode(cur)
		if !ok || next == root {
			break // fault boundary or full circle: every bucket consulted
		}
		covered += space.Clockwise(cur.ID, next.ID)
		cur = next
		op.Forward(cur.Addr, cur.ID, routing.ReasonRangeWalk)
		op.Visit(cur.Addr, cur.ID)
		collect(cur)
	}
	return result(), nil
}

// OutlinkCounts implements discovery.System: the conceptual trie routing
// state per node — for every level of the node's own root-to-leaf path,
// the distinct live representatives of the sibling clusters at that level.
// This is the structure-maintenance overhead ART trades for its
// sub-logarithmic hops, measured the same way the other systems count
// fingers and hub links.
func (s *System) OutlinkCounts() []int {
	view := s.view.Load()
	nodes := s.ring.Nodes()
	out := make([]int, len(nodes))
	if view == nil {
		return out
	}
	for i, n := range nodes {
		distinct := make(map[uint64]bool)
		for t := 1; t <= s.geo.levels(); t++ {
			// Sibling clusters at level t share the node's depth-(t-1)
			// prefix and enumerate all 2^width values of the level-t bits.
			base := s.geo.childLo(n.ID, t-1)
			shift := s.geo.bits - s.geo.cum[t]
			for c := uint64(0); c < uint64(1)<<s.geo.widths[t-1]; c++ {
				rep := view.successor(base | c<<shift)
				if rep != nil && rep.ID != n.ID && s.ring.Alive(rep) {
					distinct[rep.ID] = true
				}
			}
		}
		out[i] = len(distinct)
	}
	return out
}

// AddNode overrides the base to count bucket splits. The newcomer splits
// the bucket of its successor — the ring hands over the key interval the new
// node now owns — but stays invisible to the trie descent until the next
// Maintain rebuilds the view, exactly like a real trie's cached
// representative links.
func (s *System) AddNode(addr string) error {
	if err := s.Base.AddNode(addr); err != nil {
		return err
	}
	if n, ok := s.ring.NodeByAddr(addr); ok && n.Dir.Len() > 0 {
		// The join handed over a non-empty key interval: one bucket split,
		// executed as one handover. The decision site and the execution
		// site count separately and metricscheck -art asserts they agree.
		mBucketSplits.Inc()
		mBucketHandovers.Inc()
	}
	return nil
}

// Maintain overrides the base to rebuild the trie view after the ring
// round — the point where joins and failures become visible to the descent.
func (s *System) Maintain() {
	s.Base.Maintain()
	s.rebuildView()
}

// Rebalance overrides the base to rebuild the trie view after the pass:
// boundary moves replace node objects, so descent tables would otherwise
// point at retired nodes and every route would fall back.
func (s *System) Rebalance() (discovery.MigrationStats, error) {
	stats, err := s.Base.Rebalance()
	s.rebuildView()
	return stats, err
}
