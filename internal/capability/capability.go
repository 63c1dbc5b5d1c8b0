// Package capability implements, once, the control-plane faces every
// discovery system offers on top of its overlays: discovery.Dynamic,
// Crashable, NetAware, Replicated and Balancer, routing.Instrumented, and
// the System getters that only read overlay state.
//
// chord.Ring and cycloid.Overlay export the same control-plane method set
// modulo their node type, so one Base — parameterised over the node type
// and holding the system's overlays with the replicators that manage copies
// on them — serves all five systems. SWORD, MAAN, ART and LORM are the
// one-overlay case of the per-hub loops Mercury needs. A system embeds
// *Base and overrides only what truly differs (see DESIGN.md, "Capability
// base").
//
// The request path does not come through here: Register, Discover and the
// lookups call the systems' concrete overlay fields, so a request pays no
// interface dispatch for this package.
package capability

import (
	"fmt"
	"sync"

	"lorm/internal/discovery"
	"lorm/internal/loadbalance"
	"lorm/internal/replication"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// Overlay is the control-plane surface of one DHT overlay with node type N.
// Both chord.Ring (N = *chord.Node) and cycloid.Overlay (N = *cycloid.Node)
// implement it.
type Overlay[N any] interface {
	loadbalance.Mover[N]
	Join(addr string) (N, error)
	Leave(n N) error
	Fail(n N) (lostEntries int, err error)
	Addrs() []string
	Size() int
	DirectorySizes() []int
	OutlinkCounts() []int
	SetReachability(r discovery.Reachability)
	Stabilize()
}

// fingerFixer is the second maintenance step of finger-table overlays:
// chord repairs successor pointers in Stabilize and finger entries in
// FixFingers, while cycloid's Stabilize converges its whole link set.
type fingerFixer interface{ FixFingers(perNode int) }

// Plane is one overlay together with the replicators that manage copies on
// it: one for most systems, two for MAAN (value index and attribute index
// share the ring).
type Plane[N any] struct {
	Overlay Overlay[N]
	Reps    []*replication.Replicator
}

// Base implements the capability faces over a system's planes. Every
// physical node joins every plane under the same address (Mercury's hubs);
// single-overlay systems have exactly one plane.
type Base[N any] struct {
	name   string
	schema *resource.Schema
	fabric *routing.Fabric
	planes []Plane[N]

	// mu serializes membership changes and rebalancing, so a change that
	// spans several planes is atomic with respect to the others. Lookups
	// and maintenance never take it.
	mu sync.Mutex
}

// New returns the base of a system with the given name over at least one
// plane, with a fresh routing fabric labelled by the name.
func New[N any](name string, schema *resource.Schema, planes ...Plane[N]) *Base[N] {
	return &Base[N]{name: name, schema: schema, fabric: routing.NewFabric(name), planes: planes}
}

// Name implements discovery.System.
func (b *Base[N]) Name() string { return b.name }

// Schema implements discovery.System.
func (b *Base[N]) Schema() *resource.Schema { return b.schema }

// RoutingFabric implements routing.Instrumented.
func (b *Base[N]) RoutingFabric() *routing.Fabric { return b.fabric }

// NodeCount implements discovery.System: the number of physical nodes,
// which every plane holds in full.
func (b *Base[N]) NodeCount() int { return b.planes[0].Overlay.Size() }

// DirectorySizes implements discovery.System: every overlay node's
// directory size, plane by plane in ring order.
func (b *Base[N]) DirectorySizes() []int {
	var out []int
	for _, p := range b.planes {
		out = append(out, p.Overlay.DirectorySizes()...)
	}
	return out
}

// OutlinkCounts implements discovery.System: every overlay node's distinct
// live neighbors, plane by plane in ring order.
func (b *Base[N]) OutlinkCounts() []int {
	var out []int
	for _, p := range b.planes {
		out = append(out, p.Overlay.OutlinkCounts()...)
	}
	return out
}

// NodeAddrs implements discovery.Dynamic: live addresses in the first
// plane's ring order.
func (b *Base[N]) NodeAddrs() []string { return b.planes[0].Overlay.Addrs() }

// AddNode implements discovery.Dynamic: a protocol join on every plane. An
// address that is already live is rejected — the overlays would hash it to
// a second identifier and the node would exist twice.
func (b *Base[N]) AddNode(addr string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, live := b.planes[0].Overlay.NodeByAddr(addr); live {
		return fmt.Errorf("%s: duplicate address %q", b.name, addr)
	}
	for _, p := range b.planes {
		if _, err := p.Overlay.Join(addr); err != nil {
			return err
		}
	}
	return nil
}

// RemoveNode implements discovery.Dynamic: a graceful departure from every
// plane, handing the node's directory entries to its successors.
func (b *Base[N]) RemoveNode(addr string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.planes {
		n, ok := p.Overlay.NodeByAddr(addr)
		if !ok {
			return fmt.Errorf("%s: no node with address %q", b.name, addr)
		}
		if err := p.Overlay.Leave(n); err != nil {
			return err
		}
	}
	return nil
}

// FailNode implements discovery.Crashable: the node vanishes from every
// plane at once with its directories — no handover, no pointer repair. It
// returns the number of entries lost, summed across planes; replicas of
// them may survive elsewhere.
func (b *Base[N]) FailNode(addr string) (lostEntries int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.planes {
		n, ok := p.Overlay.NodeByAddr(addr)
		if !ok {
			return lostEntries, fmt.Errorf("%s: no node with address %q", b.name, addr)
		}
		lost, err := p.Overlay.Fail(n)
		if err != nil {
			return lostEntries, err
		}
		lostEntries += lost
	}
	return lostEntries, nil
}

// Maintain implements discovery.Dynamic: one stabilization round per
// plane, each followed by a replica-repair pass on the replicators that
// have replicas in play (base factor above 1 or a hot-key promotion).
func (b *Base[N]) Maintain() {
	for _, p := range b.planes {
		p.Overlay.Stabilize()
		if f, ok := p.Overlay.(fingerFixer); ok {
			f.FixFingers(0)
		}
		for _, rep := range p.Reps {
			if rep.Active() {
				rep.Repair()
			}
		}
	}
}

// SetReachability implements discovery.NetAware: the fault plane fans out
// to every overlay — they share the physical network, so a partition cuts
// the same node pairs in each — and every subsequent lookup and range walk
// consults it. Nil restores fault-free routing.
func (b *Base[N]) SetReachability(r discovery.Reachability) {
	for _, p := range b.planes {
		p.Overlay.SetReachability(r)
	}
}

// SetReplicas implements discovery.Replicated: it sets the base factor of
// every replicator (minimum 1 = unreplicated). It affects subsequent
// Register calls; Repair brings stored entries up to the new factor.
func (b *Base[N]) SetReplicas(r int) error {
	for _, p := range b.planes {
		for _, rep := range p.Reps {
			if err := rep.SetFactor(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Replicas implements discovery.Replicated.
func (b *Base[N]) Replicas() int { return b.planes[0].Reps[0].Factor() }

// Repair implements discovery.Replicated: it restores the holder invariant
// on every replicator — each entry on exactly its root plus
// effective-fan-out−1 successors — and sums the copies added and removed.
// It is idempotent.
func (b *Base[N]) Repair() (added, removed int) {
	for _, p := range b.planes {
		for _, rep := range p.Reps {
			a, r := rep.Repair()
			added += a
			removed += r
		}
	}
	return added, removed
}

// PromoteHot promotes the hottest key-groups of every replicator to
// replicated reads, driven by one physical-node visit report (see
// replication.Replicator.PromoteHot). It returns the total keys promoted.
func (b *Base[N]) PromoteHot(visits []discovery.NodeLoad, opts replication.HotKeyOptions) int {
	promoted := 0
	for _, p := range b.planes {
		for _, rep := range p.Reps {
			promoted += rep.PromoteHot(visits, opts)
		}
	}
	return promoted
}

// DirectoryLoads implements discovery.Balancer: every overlay node's
// address and directory size, plane by plane in ring order.
func (b *Base[N]) DirectoryLoads() []discovery.NodeLoad {
	var out []discovery.NodeLoad
	for _, p := range b.planes {
		for _, h := range p.Overlay.Placement().HolderRing() {
			out = append(out, discovery.NodeLoad{Addr: h.Addr, Entries: h.Dir.Len()})
		}
	}
	return out
}

// Rebalance implements discovery.Balancer: one neighbor item-migration
// pass per plane. Each plane has its own load distribution, so imbalance
// is detected and shed plane by plane. Hotspots that cannot shed anything
// are reported in MigrationStats.Blocked by the planner itself.
func (b *Base[N]) Rebalance() (discovery.MigrationStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var stats discovery.MigrationStats
	for _, p := range b.planes {
		stats.Add(loadbalance.Rebalance[N](p.Overlay))
	}
	return stats, nil
}
