package systemtest

import (
	"lorm/internal/art"
	"lorm/internal/core"
	"lorm/internal/discovery"
	"lorm/internal/maan"
	"lorm/internal/mercury"
	"lorm/internal/resource"
	"lorm/internal/sword"
)

// SystemSpec is one entry of the deployment registry: everything the shared
// builder needs to construct and populate one discovery system. Adding a
// system to the comparison means appending one spec here — Build, the
// equivalence and replication property tests, and every registry-driven
// experiment table pick it up without further changes.
type SystemSpec struct {
	// Name is the system's discovery.System name ("lorm", "art", ...).
	Name string
	// Skipped reports whether the options elide this system from a build.
	Skipped func(Options) bool
	// Build constructs the system over the shared addresses, populates it,
	// and assigns the Deployment's typed field.
	Build func(d *Deployment, schema *resource.Schema, addrs []string, opts Options) (discovery.System, error)
}

// registry lists every system of the comparison in deployment (and table
// column) order: the paper's four, then ART, the sub-logarithmic fifth.
var registry = []SystemSpec{
	{
		Name: "lorm",
		Build: func(d *Deployment, schema *resource.Schema, addrs []string, opts Options) (discovery.System, error) {
			l, err := core.New(core.Config{D: opts.D, Schema: schema, Logger: opts.Logger})
			if err != nil {
				return nil, err
			}
			if opts.CompleteLORM {
				if err := l.PopulateComplete(); err != nil {
					return nil, err
				}
			} else if err := l.AddNodes(addrs); err != nil {
				return nil, err
			}
			d.LORM = l
			return l, nil
		},
	},
	{
		Name:    "mercury",
		Skipped: func(opts Options) bool { return opts.SkipMercury },
		Build: func(d *Deployment, schema *resource.Schema, addrs []string, opts Options) (discovery.System, error) {
			m, err := mercury.New(mercury.Config{Bits: opts.Bits, Schema: schema, Logger: opts.Logger})
			if err != nil {
				return nil, err
			}
			if err := m.AddNodes(addrs); err != nil {
				return nil, err
			}
			d.Mercury = m
			return m, nil
		},
	},
	{
		Name: "sword",
		Build: func(d *Deployment, schema *resource.Schema, addrs []string, opts Options) (discovery.System, error) {
			s, err := sword.New(sword.Config{Bits: opts.Bits, Schema: schema, Logger: opts.Logger, FingerRng: opts.FingerRng})
			if err != nil {
				return nil, err
			}
			if err := s.AddNodes(addrs); err != nil {
				return nil, err
			}
			d.SWORD = s
			return s, nil
		},
	},
	{
		Name: "maan",
		Build: func(d *Deployment, schema *resource.Schema, addrs []string, opts Options) (discovery.System, error) {
			a, err := maan.New(maan.Config{Bits: opts.Bits, Schema: schema, Logger: opts.Logger, FingerRng: opts.FingerRng})
			if err != nil {
				return nil, err
			}
			if err := a.AddNodes(addrs); err != nil {
				return nil, err
			}
			d.MAAN = a
			return a, nil
		},
	},
	{
		Name: "art",
		Build: func(d *Deployment, schema *resource.Schema, addrs []string, opts Options) (discovery.System, error) {
			t, err := art.New(art.Config{Bits: opts.Bits, Schema: schema, Logger: opts.Logger, FingerRng: opts.FingerRng})
			if err != nil {
				return nil, err
			}
			if err := t.AddNodes(addrs); err != nil {
				return nil, err
			}
			d.ART = t
			return t, nil
		},
	},
}

// Registry returns a copy of the system registry in deployment order.
func Registry() []SystemSpec { return append([]SystemSpec(nil), registry...) }

// Names returns every registered system name in deployment order — the
// canonical column order of multi-system experiment tables.
func Names() []string {
	out := make([]string, len(registry))
	for i, spec := range registry {
		out[i] = spec.Name
	}
	return out
}
