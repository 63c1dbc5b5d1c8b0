// Package replication is the shared successor-set replication layer the
// five discovery systems build on. It owns the placement contract (which
// nodes hold copies of an entry), the replica placement recorded on the
// routing fabric, the churn Repair pass that restores the holder invariant,
// hot-key promotion driven by traffic-ledger hotspot reports, and the
// power-of-two-choices replica-aware read planner.
//
// # Placement contract
//
// Every entry's holders are its root — the overlay node owning the entry's
// key — plus up to r−1 distinct successors along the overlay ring, where r
// is the per-key replication fan-out: the base factor set by SetFactor,
// raised per key-group by hot-key promotion. The successor chain follows
// the overlay's own next-node relation (successor lists with an oracle
// fallback), so placement under churn matches what the overlay would route
// to, not an idealized membership view.
//
// The overlays implement Placement (chord.Ring.Placement,
// cycloid.Overlay.Placement); this package is the only one that turns a
// Placement into replica holders, which a CI grep guard enforces.
package replication

import (
	"fmt"
	"io"
	"log/slog"
	"sync"

	"lorm/internal/directory"
	"lorm/internal/routing"
)

// Holder is one node able to hold replica copies: its address, linearized
// overlay position, and directory.
type Holder struct {
	Addr string
	Pos  uint64
	Dir  *directory.Store
}

// Placement is the overlay-side view replication needs: a way to resolve
// keys and positions to live nodes and to walk the successor chain. Both
// chord.Ring and cycloid.Overlay implement it.
type Placement interface {
	// Capacity returns the number of positions in the overlay's identifier
	// space; replication factors beyond it are rejected.
	Capacity() uint64
	// HolderAt returns the live node at exactly the given position.
	HolderAt(pos uint64) (Holder, bool)
	// HolderOf returns the live node owning the given key (its oracle
	// successor on the ring).
	HolderOf(key uint64) (Holder, bool)
	// SuccessorOf returns the live node following the given position on
	// the ring — the overlay's next-node relation, i.e. the node's
	// successor pointer when it is alive with an oracle fallback
	// otherwise. ok is false when there is no distinct successor.
	SuccessorOf(pos uint64) (Holder, bool)
	// HolderRing returns every live node in ring order.
	HolderRing() []Holder
}

// Option configures a Replicator.
type Option func(*Replicator)

// WithFilter restricts replication to entries the predicate accepts; other
// entries are neither placed nor touched by Repair. MAAN uses it to
// replicate only its value-keyed half of each dual-keyed registration.
func WithFilter(f func(directory.Entry) bool) Option {
	return func(r *Replicator) { r.filter = f }
}

// WithLogger routes structured hot-key lifecycle events (promotion,
// demotion) to the given logger at Debug level. Nil keeps logging off.
func WithLogger(l *slog.Logger) Option {
	return func(r *Replicator) {
		if l != nil {
			r.log = l
		}
	}
}

// Replicator manages replica copies over one overlay: base placement on
// register, churn repair, hot-key promotion and replica-aware read
// planning. One system owns one Replicator per overlay (Mercury: one per
// attribute hub).
type Replicator struct {
	p      Placement
	filter func(directory.Entry) bool
	log    *slog.Logger

	mu     sync.Mutex
	factor int               // base replication factor, >= 1
	hot    map[uint64]int    // per-key promoted fan-out (> 1)
	reads  map[uint64]uint64 // per-key single-key read tallies
	served map[string]uint64 // per-holder replica reads served (po2 choice)
	rr     uint64            // read-plan rotation counter
}

// NewReplicator returns a replicator over the placement with factor 1
// (replication off).
func NewReplicator(p Placement, opts ...Option) *Replicator {
	r := &Replicator{
		p:      p,
		log:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		factor: 1,
		hot:    make(map[uint64]int),
		reads:  make(map[uint64]uint64),
		served: make(map[string]uint64),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// SetFactor sets the base replication factor: every filtered entry is kept
// on its root plus factor−1 successors.
func (r *Replicator) SetFactor(factor int) error {
	if factor < 1 {
		return fmt.Errorf("replication: factor %d < 1", factor)
	}
	if uint64(factor) > r.p.Capacity() {
		return fmt.Errorf("replication: factor %d exceeds overlay capacity %d", factor, r.p.Capacity())
	}
	r.mu.Lock()
	r.factor = factor
	r.mu.Unlock()
	return nil
}

// Factor returns the base replication factor (>= 1).
func (r *Replicator) Factor() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.factor
}

// Active reports whether any replicas can exist: base factor above 1 or at
// least one promoted hot key. Systems use it to keep the replication-off
// fast paths (no dedupe, no repair) byte-identical to the unreplicated
// code.
func (r *Replicator) Active() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.factor > 1 || len(r.hot) > 0
}

// factorOf returns the effective fan-out for one key: the base factor,
// raised by hot-key promotion.
func (r *Replicator) factorOf(key uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.hot[key]; f > r.factor {
		return f
	}
	return r.factor
}

// Place stores factor−1 replica copies of a just-registered entry on the
// distinct successors of its root (the node at rootPos), recording one
// ReasonReplicate forward per copy on op. A re-announce of a hot-promoted
// key invalidates the promotion first (see Invalidate), so stale promoted
// copies are dropped by the next Repair rather than served to readers.
// It returns the number of copies placed.
func (r *Replicator) Place(op *routing.Op, rootPos uint64, e directory.Entry) int {
	if r.filter != nil && !r.filter(e) {
		return 0
	}
	r.Invalidate(e.Key)
	factor := r.Factor()
	if factor <= 1 {
		return 0
	}
	root, ok := r.p.HolderAt(rootPos)
	if !ok {
		return 0
	}
	placed := 0
	cur := root
	for i := 1; i < factor; i++ {
		next, ok := r.p.SuccessorOf(cur.Pos)
		if !ok || next.Pos == rootPos {
			break // wrapped around a small ring: no more distinct holders
		}
		cur = next
		cur.Dir.Add(e)
		op.Forward(cur.Addr, cur.Pos, routing.ReasonReplicate)
		placed++
	}
	if placed > 0 {
		mPlaced.Add(uint64(placed))
	}
	return placed
}

// holdersFor returns the desired holder set of one key: its root plus
// fanout−1 distinct successors, in chain order.
func (r *Replicator) holdersFor(key uint64, fanout int) []Holder {
	root, ok := r.p.HolderOf(key)
	if !ok {
		return nil
	}
	holders := make([]Holder, 1, fanout)
	holders[0] = root
	cur := root
	for i := 1; i < fanout; i++ {
		next, ok := r.p.SuccessorOf(cur.Pos)
		if !ok || next.Pos == root.Pos {
			break
		}
		cur = next
		holders = append(holders, cur)
	}
	return holders
}

// entryIdent identifies one logical entry across nodes. It includes the
// placement key: two distinct resources that agree on (attr, value, owner)
// but live under different keys are different entries and must never
// collapse (this was the latent dedupe bug in the old core-private layer).
type entryIdent struct {
	key   uint64
	attr  string
	value float64
	owner string
}

func identOf(e directory.Entry) entryIdent {
	return entryIdent{key: e.Key, attr: e.Info.Attr, value: e.Info.Value, owner: e.Info.Owner}
}

// Repair restores the holder invariant after churn: every filtered entry is
// stored on exactly its desired holders — root plus effective-fan-out−1
// successors. Copies missing from a desired holder are added; copies on
// nodes outside the desired set (including replicas orphaned by a
// re-announce invalidation or a demotion) are removed. The pass is a
// maintenance sweep over live directories, not a routed operation, so it
// records nothing on the fabric. It is idempotent: an immediate second call
// reports (0, 0).
func (r *Replicator) Repair() (added, removed int) {
	ring := r.p.HolderRing()
	byPos := make(map[uint64]Holder, len(ring))
	holders := make(map[entryIdent]map[uint64]bool)
	entries := make(map[entryIdent]directory.Entry)
	for _, h := range ring {
		byPos[h.Pos] = h
		for _, e := range h.Dir.Snapshot() {
			if r.filter != nil && !r.filter(e) {
				continue
			}
			id := identOf(e)
			set := holders[id]
			if set == nil {
				set = make(map[uint64]bool)
				holders[id] = set
				entries[id] = e
			}
			set[h.Pos] = true
		}
	}
	for id, held := range holders {
		e := entries[id]
		want := r.holdersFor(e.Key, r.factorOf(e.Key))
		if len(want) == 0 {
			continue // no live owner for the key right now
		}
		desired := make(map[uint64]bool, len(want))
		for _, h := range want {
			desired[h.Pos] = true
			if !held[h.Pos] {
				h.Dir.Add(e)
				added++
			}
		}
		for pos := range held {
			if desired[pos] {
				continue
			}
			h := byPos[pos]
			for h.Dir.Remove(e) {
			}
			removed++
		}
	}
	if added > 0 {
		mPlaced.Add(uint64(added))
	}
	if removed > 0 {
		mDropped.Add(uint64(removed))
	}
	return added, removed
}
