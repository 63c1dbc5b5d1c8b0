package loadbalance

import (
	"fmt"
	"sort"

	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/replication"
)

// hotThreshold is the max/mean load factor above which a node counts as a
// hotspot worth shedding: below it, a boundary move churns entries for
// marginal gain.
const hotThreshold = 1.2

// Mover is the overlay surface one migration pass needs: the placement
// view (ring-ordered holders with their directories, and the size of the
// position space) plus the two boundary moves. chord.Ring and
// cycloid.Overlay both implement it, with N their node type.
type Mover[N any] interface {
	Placement() replication.Placement
	NodeByAddr(addr string) (N, bool)
	// Advance moves n clockwise to newPos, taking the key interval
	// (old position, newPos] over from its ring successor.
	Advance(n N, newPos uint64) (N, int, error)
	// Retreat moves n counterclockwise to newPos, handing the key interval
	// (newPos, old position] to its ring successor.
	Retreat(n N, newPos uint64) (N, int, error)
}

// Rebalance runs one item-migration pass over an overlay: it greedily sheds
// from the hottest node until every node is within hotThreshold of the
// mean, every remaining hotspot is blocked, or 2n boundary moves have been
// made (enough for the greedy planner to converge on any one sample). Each
// shed moves at most half the load gap to the receiving neighbor, so the
// receiver always stays strictly below the hotspot's old load — the global
// maximum never increases, and any successful shed from the maximum node
// strictly reduces it (entry totals are conserved, so the mean is
// untouched).
//
// A hotspot whose key-groups fit neither neighbor's budget is reported
// blocked: a single-key pileup (SWORD's attribute pool), or — on a dense
// position space like a complete Cycloid, where no identifier between two
// ring neighbors is free — every hotspot.
func Rebalance[N any](o Mover[N]) discovery.MigrationStats {
	stats := discovery.MigrationStats{Passes: 1}
	mPasses.Inc()
	p := o.Placement()
	blocked := make(map[string]bool)
	for {
		ring := p.HolderRing() // ascending position == ring order
		n := len(ring)
		if n < 2 || stats.Migrations >= 2*n {
			break
		}
		loads := make([]int, n)
		total := 0
		for i, h := range ring {
			loads[i] = h.Dir.Len()
			total += loads[i]
		}
		if total == 0 {
			break
		}
		mean := float64(total) / float64(n)
		hot := -1
		for i, h := range ring {
			if blocked[h.Addr] || float64(loads[i]) <= hotThreshold*mean {
				continue
			}
			if hot < 0 || loads[i] > loads[hot] || (loads[i] == loads[hot] && h.Addr < ring[hot].Addr) {
				hot = i
			}
		}
		if hot < 0 {
			break
		}
		pred := (hot - 1 + n) % n
		budgetPred := (loads[hot] - loads[pred]) / 2
		budgetSucc := (loads[hot] - loads[(hot+1)%n]) / 2
		moved := 0
		var err error
		if budgetPred > 0 || budgetSucc > 0 {
			moved, err = shed(o, p.Capacity(), ring[hot], ring[pred], budgetPred, budgetSucc)
		}
		if err != nil || moved == 0 {
			blocked[ring[hot].Addr] = true
			stats.Blocked++
			mBlockedHotspots.Inc()
			continue
		}
		stats.Migrations++
		stats.EntriesMoved += moved
		mMigrations.Inc()
		mEntriesMoved.Add(uint64(moved))
	}
	return stats
}

// shed plans both shed directions for the hot node — a key-interval prefix
// to its ring predecessor (the predecessor advances) or a suffix to its ring
// successor (the node retreats) — under the per-direction entry budgets, and
// executes the larger viable one. It returns the number of entries actually
// moved; 0 means the node's key-groups fit neither budget (an indivisible
// pileup).
func shed[N any](o Mover[N], capacity uint64, hot, pred replication.Holder, budgetPred, budgetSucc int) (int, error) {
	groups := hot.Dir.KeyCounts()
	if len(groups) == 0 {
		return 0, nil
	}
	cw := func(a, b uint64) uint64 { return (b + capacity - a) % capacity }
	sort.Slice(groups, func(a, b int) bool {
		return cw(pred.Pos, groups[a].Key) < cw(pred.Pos, groups[b].Key)
	})
	fallback := (pred.Pos + 1) % capacity
	prefMoved, prefBoundary, sufMoved, sufBoundary := shedPlan(
		groups, hot.Pos, budgetPred, budgetSucc, fallback, fallback != hot.Pos)
	if prefMoved == 0 && sufMoved == 0 {
		return 0, nil
	}
	mover, boundary, move := hot, sufBoundary, o.Retreat
	if prefMoved >= sufMoved {
		mover, boundary, move = pred, prefBoundary, o.Advance
	}
	n, ok := o.NodeByAddr(mover.Addr)
	if !ok {
		return 0, fmt.Errorf("loadbalance: stale node %s", mover.Addr)
	}
	_, moved, err := move(n, boundary)
	return moved, err
}

// shedPlan picks the boundary for one node's key-groups under both budgets.
// Groups arrive in ring order starting just after the predecessor; ownID
// marks the group stored exactly at the node's own identifier (sheddable
// backward but never forward, since the forward boundary is the node ID
// itself). The returned booleans say whether each direction is viable;
// boundaries are expressed as the identifier the moving node ends up at.
func shedPlan(groups []directory.KeyCount, ownID uint64, budgetPred, budgetSucc int,
	fallbackRetreat uint64, haveFallback bool) (prefMoved int, prefBoundary uint64,
	sufMoved int, sufBoundary uint64) {
	cum := 0
	for _, g := range groups {
		if g.Key == ownID || cum+g.Count > budgetPred {
			break
		}
		cum += g.Count
		prefMoved, prefBoundary = cum, g.Key
	}
	cum = 0
	for k := len(groups) - 1; k >= 0; k-- {
		if cum+groups[k].Count > budgetSucc {
			if cum > 0 {
				sufMoved, sufBoundary = cum, groups[k].Key
			}
			break
		}
		cum += groups[k].Count
		if k == 0 {
			if haveFallback {
				sufMoved, sufBoundary = cum, fallbackRetreat
			} else if len(groups) > 1 {
				// No free identifier before the first group: it stays behind.
				sufMoved, sufBoundary = cum-groups[0].Count, groups[0].Key
			}
		}
	}
	return prefMoved, prefBoundary, sufMoved, sufBoundary
}
