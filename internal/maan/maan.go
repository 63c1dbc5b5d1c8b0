// Package maan implements the single-DHT-based decentralized baseline of
// the paper, modeled on MAAN (Cai, Frank et al. [3]): a single Chord ring
// in which every piece of resource information is registered TWICE —
// once under the consistent hash of its attribute name and once under the
// locality-preserving hash of its value — and every sub-query performs two
// lookups, one per index.
//
// The dual registration doubles the total resource-information volume
// (Theorem 4.2) and the attribute-keyed copies concentrate k pieces on one
// node per attribute; the value-keyed copies spread over the whole ring,
// so range queries walk about n/4 successors on average in addition to the
// two lookups (Theorem 4.9's m(2 + n/4)).
package maan

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

// Config parameterizes a MAAN deployment.
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

// System is a MAAN deployment: one Chord ring, dual-keyed placement. The
// embedded capability base supplies the control-plane faces over the ring
// and both replicators; MAAN overrides only SetReplicas and Replicas.
type System struct {
	*capability.Base[*chord.Node]
	schema   *resource.Schema
	ring     *chord.Ring
	lph      []hashing.Locality // per-attribute value hash over the full ring
	attrKeys []uint64           // per-attribute H(attr), the attribute-index key
	fabric   *routing.Fabric

	// MAAN registers every piece twice, and the two copies need different
	// replication treatment, so each index has its own filtered replicator
	// over the ring's one Placement (a key's holders are its root plus ring
	// successors regardless of which index owns it):
	//
	//   - The VALUE-keyed copies spread over the whole ring, so a crash
	//     loses a near-random slice of them. repValue replicates exactly
	//     this half; it is what SetReplicas configures and what the
	//     crash-churn experiment exercises.
	//   - The ATTRIBUTE-keyed copies pool k pieces on one node per attribute
	//     (Theorem 4.2's concentration). Crash-replicating them too would
	//     double write traffic for copies the value index already protects,
	//     so repAttr's base factor stays pinned at 1; it exists for hot-key
	//     promotion only, because under skewed read traffic the attribute
	//     pool's single root is MAAN's hottest node.
	repValue *replication.Replicator
	repAttr  *replication.Replicator
}

var (
	_ discovery.Traced     = (*System)(nil)
	_ discovery.Crashable  = (*System)(nil)
	_ discovery.NetAware   = (*System)(nil)
	_ discovery.Replicated = (*System)(nil)
	_ discovery.Balancer   = (*System)(nil)
	_ routing.Instrumented = (*System)(nil)
)

// New creates an empty MAAN system.
func New(cfg Config) (*System, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("maan: config needs a schema")
	}
	r := chord.New(chord.Config{Bits: cfg.Bits, SuccListLen: cfg.SuccListLen, Salt: "maan", FingerRng: cfg.FingerRng})
	s := &System{schema: cfg.Schema, ring: r, attrKeys: hashing.AttributeKeys(r.Space(), cfg.Schema)}
	for _, a := range cfg.Schema.Attributes() {
		s.lph = append(s.lph, hashing.NewLocalityFrom(r.Space(), a))
	}
	s.repValue = replication.NewReplicator(r.Placement(), replication.WithFilter(s.isValueKeyed), replication.WithLogger(cfg.Logger))
	s.repAttr = replication.NewReplicator(r.Placement(), replication.WithFilter(s.isAttrKeyed), replication.WithLogger(cfg.Logger))
	s.Base = capability.New("maan", cfg.Schema, capability.Plane[*chord.Node]{
		Overlay: r, Reps: []*replication.Replicator{s.repValue, s.repAttr}})
	s.fabric = s.RoutingFabric()
	return s, nil
}

// SetReplicas overrides the base, which would set every replicator: the
// factor configures the value index only, the attribute index stays pinned
// at 1.
func (s *System) SetReplicas(r int) error { return s.repValue.SetFactor(r) }

// Replicas returns the configured replication factor of the value index.
func (s *System) Replicas() int { return s.repValue.Factor() }

// isValueKeyed reports whether an entry is the value-index copy of its
// piece: stored under ℋ(value) rather than H(attr).
func (s *System) isValueKeyed(e directory.Entry) bool {
	idx := s.schema.Index(e.Info.Attr)
	return idx >= 0 && e.Key == s.valueKey(idx, e.Info.Value)
}

// isAttrKeyed reports whether an entry is the attribute-index copy of its
// piece: stored under H(attr).
func (s *System) isAttrKeyed(e directory.Entry) bool {
	idx := s.schema.Index(e.Info.Attr)
	return idx >= 0 && e.Key == s.attrKeys[idx]
}

// AddNodes bulk-populates the ring.
func (s *System) AddNodes(addrs []string) error { return s.ring.AddBulk(addrs) }

// Ring exposes the underlying Chord ring for experiments and tests.
func (s *System) Ring() *chord.Ring { return s.ring }

// attrKey returns H(attr), the attribute-index key of a schema attribute.
func (s *System) attrKey(attr string) uint64 { return s.attrKeys[s.schema.Index(attr)] }

// valueKey returns ℋ(value) for the attribute, the value-index key.
func (s *System) valueKey(idx int, v float64) uint64 {
	return s.lph[idx].Hash(v)
}

// Register implements discovery.System: the information piece is split and
// stored under both indices — two routed inserts.
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
	akey := s.attrKey(info.Attr)
	ae := directory.Entry{Key: akey, Info: info}
	ra, err := s.ring.InsertOp(op, from, akey, ae)
	if err != nil {
		op.Finish()
		return cost, err
	}
	// repAttr's factor is pinned at 1, so this only invalidates a hot-key
	// promotion of the re-announced attribute pool (no copies placed).
	s.repAttr.Place(op, ra.Root.ID, ae)
	vkey := s.valueKey(idx, info.Value)
	ve := directory.Entry{Key: vkey, Info: info}
	rv, err := s.ring.InsertOp(op, from, vkey, ve)
	if err != nil {
		op.Finish()
		return cost, err
	}
	// Crash protection replicates the value-keyed copy onto the root's ring
	// successors (and invalidates any hot promotion of the key-group).
	s.repValue.Place(op, rv.Root.ID, ve)
	return op.Finish(), nil
}

// Discover implements discovery.System: every sub-query performs the two
// lookups of the MAAN design — one on the attribute index and one on the
// value index (the latter walking successors for ranges) — and merges the
// answers.
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

	// Dedupe across the attribute-keyed and value-keyed copies (and, with
	// replication on, across replica holders — copies agree on owner and
	// value); scratch is reused across nodes so each directory match is
	// allocation-free.
	seen := make(map[string]bool)
	var matches, scratch []resource.Info
	collect := func(n *chord.Node) {
		scratch = n.Dir.MatchAppend(scratch[:0], sub.Attr, sub.Low, sub.High)
		for _, in := range scratch {
			if k := in.Owner + "\x00" + fmt.Sprint(in.Value); !seen[k] {
				seen[k] = true
				matches = append(matches, in)
			}
		}
	}

	// Lookup 1: attribute index. The attribute root pools the
	// attribute-keyed copy of every piece and answers from it — unless the
	// pool is hot-promoted, in which case the read fans out over the
	// replica holders power-of-two-choices style, probing the loser.
	akey := s.attrKey(sub.Attr)
	if plan, ok := s.repAttr.PlanRead(akey); ok {
		r1, err := s.ring.LookupOp(op, from, plan.Target.Pos)
		if err != nil {
			return nil, err
		}
		op.Visit(r1.Root.Addr, r1.Root.ID)
		op.Forward(plan.Probe.Addr, plan.Probe.Pos, routing.ReasonReplicaRead)
		collect(r1.Root)
	} else {
		r1, err := s.ring.LookupOp(op, from, akey)
		if err != nil {
			return nil, err
		}
		op.Visit(r1.Root.Addr, r1.Root.ID)
		collect(r1.Root)
	}

	// Lookup 2: value index, walking the ring for range queries; an exact
	// sub-query on a hot-promoted value key-group is replica-aware too.
	loKey := s.valueKey(idx, sub.Low)
	hiKey := s.valueKey(idx, sub.High)
	if loKey == hiKey {
		if plan, ok := s.repValue.PlanRead(loKey); ok {
			r2, err := s.ring.LookupOp(op, from, plan.Target.Pos)
			if err != nil {
				return nil, err
			}
			op.Visit(r2.Root.Addr, r2.Root.ID)
			op.Forward(plan.Probe.Addr, plan.Probe.Pos, routing.ReasonReplicaRead)
			collect(r2.Root)
			return matches, nil
		}
	}
	r2, err := s.ring.LookupOp(op, from, loKey)
	if err != nil {
		return nil, err
	}
	op.Visit(r2.Root.Addr, r2.Root.ID)
	cur := r2.Root
	collect(cur)
	// Cumulative-progress walk, as in Mercury: terminate once the visited
	// sectors cover the key interval, robust to wrapped intervals.
	space := s.ring.Space()
	target := space.Clockwise(loKey, hiKey)
	covered := space.Clockwise(loKey, cur.ID)
	for covered < target {
		next, ok := s.ring.NextNode(cur)
		if !ok || next == r2.Root {
			break // full circle: every node already consulted
		}
		covered += space.Clockwise(cur.ID, next.ID)
		cur = next
		op.Forward(cur.Addr, cur.ID, routing.ReasonRangeWalk)
		op.Visit(cur.Addr, cur.ID)
		collect(cur)
	}
	return matches, nil
}
