// Package systemtest provides shared construction helpers for spinning up
// every registered discovery system — LORM, Mercury, SWORD, MAAN, ART —
// over identical node populations, plus the brute-force oracle. The
// cross-system equivalence tests, the experiment harness's smoke tests and
// the examples all build deployments through these helpers; the set of
// systems itself lives in the registry (registry.go).
package systemtest

import (
	"fmt"
	"log/slog"
	"math/rand"

	"lorm/internal/art"
	"lorm/internal/core"
	"lorm/internal/discovery"
	"lorm/internal/maan"
	"lorm/internal/mercury"
	"lorm/internal/resource"
	"lorm/internal/sword"
)

// Deployment bundles the registered systems plus the oracle, built over the
// same schema and node count. All holds them in registry order; the typed
// fields exist for tests that poke system-specific surfaces.
type Deployment struct {
	Schema  *resource.Schema
	N       int
	LORM    *core.System
	Mercury *mercury.System
	SWORD   *sword.System
	MAAN    *maan.System
	ART     *art.System
	Oracle  *discovery.Oracle

	All []discovery.System
}

// Addresses returns the canonical synthetic node addresses node-0000…
func Addresses(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%04d", i)
	}
	return out
}

// Options tunes a deployment.
type Options struct {
	// D is the Cycloid dimension for LORM (default 8).
	D int
	// Bits is the Chord identifier width (default 20).
	Bits uint
	// CompleteLORM populates every Cycloid slot instead of hashing the
	// shared addresses; n is then forced to d·2^d.
	CompleteLORM bool
	// SkipMercury elides the (m-ring) Mercury deployment when an
	// experiment does not need it — constructing m rings dominates setup
	// time for large m.
	SkipMercury bool
	// FingerRng, when non-nil, switches the Chord-based systems (SWORD,
	// MAAN, ART's fallback ring) to ReCord-style randomized finger
	// selection, each entry drawn uniformly from its finger interval
	// instead of taking the interval's first successor.
	FingerRng *rand.Rand
	// Logger, when non-nil, receives every system's structured replication
	// lifecycle events at Debug level; lormnode sets it, the experiments
	// leave it nil.
	Logger *slog.Logger
}

// Build constructs every registered (non-skipped) system over n shared node
// addresses.
func Build(schema *resource.Schema, n int, opts Options) (*Deployment, error) {
	if opts.D == 0 {
		opts.D = 8
	}
	if opts.Bits == 0 {
		opts.Bits = 20
	}
	d := &Deployment{Schema: schema, N: n, Oracle: discovery.NewOracle(schema)}
	addrs := Addresses(n)
	for _, spec := range registry {
		if spec.Skipped != nil && spec.Skipped(opts) {
			continue
		}
		sys, err := spec.Build(d, schema, addrs, opts)
		if err != nil {
			return nil, fmt.Errorf("systemtest: build %s: %w", spec.Name, err)
		}
		d.All = append(d.All, sys)
	}
	return d, nil
}

// Systems returns the constructed systems (excluding the oracle) in
// registry order, skipping any that were elided.
func (d *Deployment) Systems() []discovery.System {
	return append([]discovery.System(nil), d.All...)
}

// RegisterEverywhere registers the info in every system and the oracle.
func (d *Deployment) RegisterEverywhere(info resource.Info) error {
	if _, err := d.Oracle.Register(info); err != nil {
		return err
	}
	for _, s := range d.Systems() {
		if _, err := s.Register(info); err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
	}
	return nil
}
