// Package emulate adapts an in-process discovery deployment to wide-area
// timing. The simulated systems resolve every overlay hop at CPU speed; a
// real grid pays a network round trip per message. WithHopLatency restores
// that cost at the serving boundary: each operation sleeps for its measured
// message count times a per-hop delay, so a gateway fronting the wrapped
// system exhibits the latency profile the paper's deployments would see —
// and transport-level techniques (pipelining, batching) can be measured
// against realistic service times instead of microsecond stubs.
package emulate

import (
	"fmt"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// HopLatency wraps a discovery.System so every Register/Discover sleeps
// Cost.Messages × PerHop after the in-process resolution, emulating the
// sequential wide-area forwarding a real deployment pays. The wrapper
// passes through the Traced, Dynamic and routing.Instrumented faces of the
// underlying system so gateways keep tracing, membership and metrics
// behavior.
type HopLatency struct {
	discovery.System
	PerHop time.Duration
}

// WithHopLatency returns sys emulating perHop of one-way delay per overlay
// message; perHop ≤ 0 returns sys unchanged.
func WithHopLatency(sys discovery.System, perHop time.Duration) discovery.System {
	if perHop <= 0 {
		return sys
	}
	return &HopLatency{System: sys, PerHop: perHop}
}

// sleep charges one operation's wide-area time: its message count (hops
// plus directory visits, each one network message in a real deployment)
// times the per-hop delay. A failed operation is not charged: Discover
// returns no Result, and so no cost, with its error, and Register reports
// the zero cost.
func (h *HopLatency) sleep(c discovery.Cost) {
	if n := c.Messages; n > 0 {
		time.Sleep(time.Duration(n) * h.PerHop)
	}
}

// Register announces one piece and charges its wide-area cost.
func (h *HopLatency) Register(info resource.Info) (discovery.Cost, error) {
	cost, err := h.System.Register(info)
	h.sleep(cost)
	return cost, err
}

// Discover resolves a query and charges its wide-area cost.
func (h *HopLatency) Discover(q resource.Query) (*discovery.Result, error) {
	res, err := h.System.Discover(q)
	if res != nil {
		h.sleep(res.Cost)
	}
	return res, err
}

// RegisterTraced joins the caller's trace context when the underlying
// system supports tracing, falling back to the plain verb otherwise.
func (h *HopLatency) RegisterTraced(info resource.Info, tc discovery.TraceContext) (discovery.Cost, error) {
	tr, ok := h.System.(discovery.Traced)
	if !ok {
		return h.Register(info)
	}
	cost, err := tr.RegisterTraced(info, tc)
	h.sleep(cost)
	return cost, err
}

// DiscoverTraced joins the caller's trace context when the underlying
// system supports tracing, falling back to the plain verb otherwise.
func (h *HopLatency) DiscoverTraced(q resource.Query, tc discovery.TraceContext) (*discovery.Result, error) {
	tr, ok := h.System.(discovery.Traced)
	if !ok {
		return h.Discover(q)
	}
	res, err := tr.DiscoverTraced(q, tc)
	if res != nil {
		h.sleep(res.Cost)
	}
	return res, err
}

// AddNode passes a join through to a dynamic underlying system.
func (h *HopLatency) AddNode(addr string) error {
	dyn, ok := h.System.(discovery.Dynamic)
	if !ok {
		return fmt.Errorf("system %s does not support membership changes", h.Name())
	}
	return dyn.AddNode(addr)
}

// RemoveNode passes a graceful departure through to a dynamic underlying
// system.
func (h *HopLatency) RemoveNode(addr string) error {
	dyn, ok := h.System.(discovery.Dynamic)
	if !ok {
		return fmt.Errorf("system %s does not support membership changes", h.Name())
	}
	return dyn.RemoveNode(addr)
}

// NodeAddrs lists live node addresses of a dynamic underlying system.
func (h *HopLatency) NodeAddrs() []string {
	if dyn, ok := h.System.(discovery.Dynamic); ok {
		return dyn.NodeAddrs()
	}
	return nil
}

// Maintain runs one stabilization round of a dynamic underlying system.
func (h *HopLatency) Maintain() {
	if dyn, ok := h.System.(discovery.Dynamic); ok {
		dyn.Maintain()
	}
}

// RoutingFabric exposes the underlying system's fabric for observers; nil
// when the underlying system is not instrumented (callers must check).
func (h *HopLatency) RoutingFabric() *routing.Fabric {
	if inst, ok := h.System.(routing.Instrumented); ok {
		return inst.RoutingFabric()
	}
	return nil
}
