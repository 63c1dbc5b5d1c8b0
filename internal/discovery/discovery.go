// Package discovery defines the common interface of the five resource
// discovery systems of the comparison — the paper's LORM, Mercury, SWORD
// and MAAN, plus ART — together with the cost accounting (logical hops,
// visited directory nodes, messages) every experiment measures.
//
// All five systems implement System; the experiment harness and the
// cross-system equivalence tests are written purely against it.
package discovery

import (
	"fmt"

	"lorm/internal/resource"
)

// Cost accounts for one operation's communication:
//
//   - Hops: logical routing hops, i.e. node-to-node forwards during DHT
//     lookups and range walks (Figures 4 and 6(a)).
//   - Visited: nodes that received the query and checked their directory
//     for matching resource information (Figures 5 and 6(b)).
//   - Messages: total messages, hops plus one reply per visited node.
type Cost struct {
	Hops     int
	Visited  int
	Messages int
}

// Add accumulates another operation's cost.
func (c *Cost) Add(o Cost) {
	c.Hops += o.Hops
	c.Visited += o.Visited
	c.Messages += o.Messages
}

func (c Cost) String() string {
	return fmt.Sprintf("hops=%d visited=%d msgs=%d", c.Hops, c.Visited, c.Messages)
}

// Result is the answer to a multi-attribute query.
type Result struct {
	// PerAttr holds each sub-query's matching resource information,
	// exactly as the directory nodes returned it.
	PerAttr map[string][]resource.Info
	// Owners is the database-like join on ip_addr: the addresses whose
	// resources satisfy every sub-query, sorted.
	Owners []string
	// Cost is the query's total communication cost across sub-queries.
	Cost Cost
}

// System is a DHT-based grid resource discovery service.
type System interface {
	// Name identifies the approach ("lorm", "mercury", "sword", "maan", "art").
	Name() string
	// Schema returns the globally known attribute types.
	Schema() *resource.Schema
	// NodeCount returns the number of live directory nodes.
	NodeCount() int
	// Register announces one piece of available-resource information,
	// routing it to its directory node(s). It reports the routing cost.
	Register(info resource.Info) (Cost, error)
	// Discover resolves a multi-attribute (possibly range) query: each
	// sub-query is routed to its root, range sub-queries additionally walk
	// neighboring directory nodes, and the per-attribute results are
	// joined on the owner address.
	Discover(q resource.Query) (*Result, error)
	// DirectorySizes samples every node's directory size (pieces of
	// resource information), the load-balance metric of Figures 3(b)-(d).
	DirectorySizes() []int
	// OutlinkCounts samples every node's distinct overlay neighbors, the
	// structure maintenance metric of Figure 3(a).
	OutlinkCounts() []int
}

// TraceContext identifies one distributed trace as it crosses process
// boundaries: the trace it belongs to, the caller-side span the callee's
// work should parent under, and the head-sampling decision made at the
// trace root. The zero value means "no incoming context" — the callee's
// tracer (if any) starts a fresh trace and makes its own sampling call.
type TraceContext struct {
	// TraceID identifies the whole end-to-end trace (nonzero when set).
	TraceID uint64 `json:"trace_id"`
	// SpanID is the caller-side span that should become the parent of the
	// callee's root span.
	SpanID uint64 `json:"span_id"`
	// Sampled carries the head-sampling decision: when the root sampled the
	// trace, every downstream participant records its spans too, so a trace
	// is always complete or absent — never partial.
	Sampled bool `json:"sampled"`
}

// Valid reports whether the context carries a real trace identity.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Traced is implemented by systems whose Register/Discover can join a
// caller-provided trace: the variants behave identically to the System
// methods but parent their routing-fabric spans under ctx. All five
// systems implement it; transport servers use it to link server-side
// spans to the client that carried ctx over the wire.
type Traced interface {
	System
	// RegisterTraced is Register joined to the caller's trace context.
	RegisterTraced(info resource.Info, ctx TraceContext) (Cost, error)
	// DiscoverTraced is Discover joined to the caller's trace context.
	DiscoverTraced(q resource.Query, ctx TraceContext) (*Result, error)
}

// Dynamic is implemented by systems that support churn: node joins and
// graceful departures plus a periodic maintenance round.
type Dynamic interface {
	System
	// AddNode joins a new physical node under the given address.
	AddNode(addr string) error
	// RemoveNode gracefully departs the node with the given address.
	RemoveNode(addr string) error
	// NodeAddrs lists live node addresses (for victim selection).
	NodeAddrs() []string
	// Maintain runs one stabilization round.
	Maintain()
}

// Crashable is implemented by systems that additionally survive abrupt
// crash failures: the node vanishes with its directory contents — no key
// handover, no pointer repair — and routing state heals through subsequent
// lookups and Maintain rounds. This is the failure model the paper's churn
// evaluation (Section V.C) deliberately excludes; the crash experiments
// measure what its graceful-departure assumption hides.
type Crashable interface {
	Dynamic
	// FailNode crashes the node with the given address abruptly. It
	// returns the number of directory entries that vanished with the node
	// (replicas of those entries may survive elsewhere).
	FailNode(addr string) (lostEntries int, err error)
}

// Reachability is a directed link predicate over node addresses: can a
// message sent by `from` reach `to` right now? The zero answer for healthy
// networks is "always true"; internal/netfault implements this interface
// with named partitions and one-way blackholes. Implementations must be
// safe for concurrent use — overlay lookups consult them lock-free.
//
// The predicate models the network, not the process table: a node that is
// alive but on the far side of a partition is unreachable, while a crashed
// node is simply absent from the overlay. Directedness matters — asymmetric
// links (A reaches B, B cannot reach A) are representable and exercised by
// the blackhole tests.
type Reachability interface {
	Reachable(from, to string) bool
}

// NetAware is implemented by systems whose overlays can route around (and
// fail on) injected network faults: SetReachability installs the fault
// plane every subsequent lookup and range walk consults. A nil plane
// restores fault-free routing.
type NetAware interface {
	System
	SetReachability(r Reachability)
}

// Replicated is implemented by systems that keep redundant copies of
// directory entries on successor-set holders (the shared
// internal/replication layer). SetReplicas selects the base replication
// factor r: every entry is stored on its root plus up to r−1 distinct
// successors. Repair restores that holder invariant after churn — it adds
// missing copies, drops copies from nodes that should no longer hold them
// (including replicas invalidated by a re-announce), and is idempotent: a
// second immediate call reports (0, 0).
type Replicated interface {
	System
	// SetReplicas sets the base replication factor (r ≥ 1; r = 1 disables
	// replication). It rejects factors below 1 or beyond the overlay's
	// capacity.
	SetReplicas(r int) error
	// Replicas returns the configured base replication factor (≥ 1).
	Replicas() int
	// Repair re-establishes the holder invariant for every entry and
	// reports how many copies it added and removed.
	Repair() (added, removed int)
}

// NodeLoad is one node's storage load: how many pieces of resource
// information its directory holds. Unlike DirectorySizes it carries the
// node's address, so imbalance reports can name hotspots and migration
// plans can target them.
type NodeLoad struct {
	Addr    string
	Entries int
}

// MigrationStats summarizes one rebalance pass.
type MigrationStats struct {
	// Passes is the number of planner passes executed (≥ 1).
	Passes int
	// Migrations is the number of boundary moves performed.
	Migrations int
	// EntriesMoved is the total number of directory entries that changed
	// node across those migrations.
	EntriesMoved int
	// Blocked counts hotspots the planner could not shed anything from —
	// for key-partitioned systems an occasional single-key pileup, for
	// SWORD the structural common case (a whole attribute lives under one
	// key, and one key cannot be split between nodes).
	Blocked int
}

// Add accumulates another pass's stats.
func (m *MigrationStats) Add(o MigrationStats) {
	m.Passes += o.Passes
	m.Migrations += o.Migrations
	m.EntriesMoved += o.EntriesMoved
	m.Blocked += o.Blocked
}

func (m MigrationStats) String() string {
	return fmt.Sprintf("passes=%d migrations=%d moved=%d blocked=%d",
		m.Passes, m.Migrations, m.EntriesMoved, m.Blocked)
}

// Balancer is implemented by systems that expose per-node load and a
// neighbor item-migration pass. Rebalance must preserve query semantics
// exactly: every query returns the same result multiset before and after
// (entries only change which node stores them, never whether a range walk
// finds them). A system unable to shed anything (SWORD's one-key-per-
// attribute placement) still implements the interface — its Rebalance
// reports the blocked hotspots instead of moving entries, which is itself
// a measured result.
type Balancer interface {
	System
	// DirectoryLoads samples every node's directory size with its address,
	// in a deterministic order.
	DirectoryLoads() []NodeLoad
	// Rebalance runs one item-migration pass and reports what moved.
	Rebalance() (MigrationStats, error)
}

// Finish completes a Result: joins owners and validates invariants. The
// systems call it at the end of Discover so join semantics stay identical
// across implementations.
func Finish(res *Result) *Result {
	res.Owners = resource.JoinOwners(res.PerAttr)
	return res
}
