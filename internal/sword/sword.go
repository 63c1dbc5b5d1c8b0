// Package sword implements the single-DHT-based centralized baseline of
// the paper, modeled on SWORD (Oppenheimer et al. [6], with Chord standing
// in for Bamboo per the paper's comparative setup): a single DHT in which
// the consistent hash of the attribute name is the key, so one node pools
// ALL resource information of a given attribute.
//
// Range queries are answered entirely by that attribute root — no
// successor walking, hence the m visited nodes of Theorem 4.9 — at the
// price of the worst load balance in the comparison: k pieces concentrate
// on a single directory node (Theorem 4.4).
package sword

import (
	"fmt"
	"log/slog"
	"math/rand"

	"lorm/internal/capability"
	"lorm/internal/chord"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/hashing"
	"lorm/internal/replication"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// Config parameterizes a SWORD deployment.
type Config struct {
	// Bits is the identifier width of the ring (default 20).
	Bits uint
	// SuccListLen is the successor-list length.
	SuccListLen int
	// Schema is the globally known attribute set.
	Schema *resource.Schema
	// Logger, when non-nil, receives structured replication lifecycle
	// events (hot-key promotion/demotion) at Debug level.
	Logger *slog.Logger
	// FingerRng, when non-nil, enables ReCord-style randomized finger
	// selection on the ring (see chord.Config.FingerRng); seeded sources
	// replay deterministically.
	FingerRng *rand.Rand
}

// System is a SWORD deployment: one Chord ring, attribute-keyed placement.
// The embedded capability base supplies the control-plane faces over the
// ring; nothing in them is SWORD-specific. Replication copies whole
// attribute pools (the placement unit is the single key H(attr)), so a
// replica answers any range exactly as the root would; rebalancing cannot
// split a pool, so the planner reports the attribute roots as blocked
// hotspots — the paper's "centralized" verdict, measured.
type System struct {
	*capability.Base[*chord.Node]
	schema *resource.Schema
	ring   *chord.Ring
	keys   []uint64 // by schema index: the attribute's ring key H(attr)
	rep    *replication.Replicator
	fabric *routing.Fabric
}

var (
	_ discovery.Traced     = (*System)(nil)
	_ discovery.Crashable  = (*System)(nil)
	_ discovery.NetAware   = (*System)(nil)
	_ discovery.Replicated = (*System)(nil)
	_ discovery.Balancer   = (*System)(nil)
	_ routing.Instrumented = (*System)(nil)
)

// New creates an empty SWORD system.
func New(cfg Config) (*System, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("sword: config needs a schema")
	}
	r := chord.New(chord.Config{Bits: cfg.Bits, SuccListLen: cfg.SuccListLen, Salt: "sword", FingerRng: cfg.FingerRng})
	rep := replication.NewReplicator(r.Placement(), replication.WithLogger(cfg.Logger))
	base := capability.New("sword", cfg.Schema, capability.Plane[*chord.Node]{
		Overlay: r, Reps: []*replication.Replicator{rep}})
	return &System{
		Base:   base,
		schema: cfg.Schema,
		ring:   r,
		keys:   hashing.AttributeKeys(r.Space(), cfg.Schema),
		rep:    rep,
		fabric: base.RoutingFabric(),
	}, nil
}

// AddNodes bulk-populates the ring.
func (s *System) AddNodes(addrs []string) error { return s.ring.AddBulk(addrs) }

// Ring exposes the underlying Chord ring for experiments and tests.
func (s *System) Ring() *chord.Ring { return s.ring }

// attrKey returns the ring key of a schema attribute: H(attr).
func (s *System) attrKey(attr string) uint64 { return s.keys[s.schema.Index(attr)] }

// Register implements discovery.System: one insert under H(attr); the
// attribute root accumulates every piece of the attribute.
func (s *System) Register(info resource.Info) (discovery.Cost, error) {
	return s.RegisterTraced(info, discovery.TraceContext{})
}

// RegisterTraced implements discovery.Traced: Register parented under the
// caller's trace context.
func (s *System) RegisterTraced(info resource.Info, tc discovery.TraceContext) (cost discovery.Cost, err error) {
	if err := info.Validate(s.schema); err != nil {
		return cost, err
	}
	key := s.attrKey(info.Attr)
	from, err := s.ring.NodeNear(info.Owner)
	if err != nil {
		return cost, err
	}
	op := s.fabric.BeginTraced(routing.OpRegister, info.Owner, tc)
	e := directory.Entry{Key: key, Info: info}
	route, err := s.ring.InsertOp(op, from, key, e)
	if err != nil {
		op.Finish()
		return cost, err
	}
	// Replication extension: the attribute pool's copies go on the root's
	// ring successors, and a re-announce invalidates any hot-key promotion
	// of the pool.
	s.rep.Place(op, route.Root.ID, e)
	return op.Finish(), nil
}

// Discover implements discovery.System: each sub-query is one lookup; the
// attribute root scans its pooled directory for the value range and the
// search stops there ("in SWORD, the resource searching stops").
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
		from, err := s.ring.NodeNear(q.Requester)
		if err != nil {
			return nil, err
		}
		// Replica-aware read: every SWORD sub-query — range or exact — is a
		// single-key read of the H(attr) pool, so when the pool is
		// hot-promoted any sub-query can fan out over the wholesale pool
		// copies power-of-two-choices style, probing the losing candidate.
		key := s.attrKey(sub.Attr)
		if plan, ok := s.rep.PlanRead(key); ok {
			route, err := s.ring.LookupOp(op, from, plan.Target.Pos)
			if err != nil {
				return nil, err
			}
			op.Visit(route.Root.Addr, route.Root.ID)
			op.Forward(plan.Probe.Addr, plan.Probe.Pos, routing.ReasonReplicaRead)
			return route.Root.Dir.Match(sub.Attr, sub.Low, sub.High), nil
		}
		route, err := s.ring.LookupOp(op, from, key)
		if err != nil {
			return nil, err
		}
		op.Visit(route.Root.Addr, route.Root.ID)
		return route.Root.Dir.Match(sub.Attr, sub.Low, sub.High), nil
	})
	if err != nil {
		return nil, err
	}
	res.Cost = op.Cost()
	return res, nil
}
