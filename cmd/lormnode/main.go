// Command lormnode runs a grid resource-discovery gateway over real TCP
// and ships the matching client operations.
//
// A gateway hosts a discovery deployment (LORM by default; Mercury, SWORD
// and MAAN are available for comparison) and serves the wire protocol of
// internal/transport. Providers announce resources and requesters resolve
// multi-attribute range queries remotely:
//
//	lormnode serve -listen 127.0.0.1:7400 -system lorm -d 8 -nodes 512 \
//	        -attrs cpu:100:3200,mem:0:8192,disk:1:2000
//	lormnode register -gateway 127.0.0.1:7400 -attr cpu -value 2000 -owner site-a
//	lormnode query    -gateway 127.0.0.1:7400 -q "cpu:1500:3200,mem:2048:8192"
//	lormnode stats    -gateway 127.0.0.1:7400
//	lormnode addnode  -gateway 127.0.0.1:7400 -node newpeer-01
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/emulate"
	"lorm/internal/metrics"
	"lorm/internal/resource"
	"lorm/internal/routing"
	"lorm/internal/systemtest"
	"lorm/internal/tracing"
	"lorm/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "register":
		err = cmdRegister(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "addnode":
		err = cmdMembership(os.Args[2:], true)
	case "removenode":
		err = cmdMembership(os.Args[2:], false)
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lormnode:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lormnode <serve|register|query|stats|addnode|removenode> [flags]

serve      run a gateway:      -listen ADDR -system lorm|mercury|sword|maan -d N -nodes N -attrs SPEC
                               [-metrics-listen ADDR]  HTTP: /metrics (Prometheus; ?format=json),
                                                       /healthz, /debug/pprof/*
register   announce a resource: -gateway ADDR -attr NAME -value V -owner ADDR
query      resolve a query:     -gateway ADDR -q "attr:lo:hi,attr:lo:hi" [-requester NAME]
stats      deployment summary:  -gateway ADDR
addnode    join a node:         -gateway ADDR -node NAME
removenode depart a node:       -gateway ADDR -node NAME

attribute spec: name:min:max[,name:min:max...]`)
}

// parseAttrs parses "cpu:100:3200,mem:0:8192" into a schema.
func parseAttrs(spec string) (*resource.Schema, error) {
	var attrs []resource.Attribute
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("attribute spec %q: want name:min:max", part)
		}
		min, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: bad min: %w", fields[0], err)
		}
		max, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: bad max: %w", fields[0], err)
		}
		attrs = append(attrs, resource.Attribute{Name: fields[0], Min: min, Max: max})
	}
	return resource.NewSchema(attrs...)
}

// parseQuery parses "cpu:1500:3200,mem:4096:4096" into sub-queries; a
// two-field form "cpu:1500" is an exact query.
func parseQuery(spec string) ([]resource.SubQuery, error) {
	var subs []resource.SubQuery
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("query spec %q: want attr:value or attr:lo:hi", part)
		}
		lo, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("query %s: bad bound: %w", fields[0], err)
		}
		hi := lo
		if len(fields) == 3 {
			hi, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("query %s: bad bound: %w", fields[0], err)
			}
		}
		if lo > hi {
			return nil, fmt.Errorf("query %s: inverted bounds %g > %g", fields[0], lo, hi)
		}
		subs = append(subs, resource.SubQuery{Attr: fields[0], Low: lo, High: hi})
	}
	return subs, nil
}

// fitDimension picks the smallest Cycloid dimension whose capacity d·2^d
// leaves headroom over the peer count; running far below capacity
// degenerates the cube-connected-cycles structure.
func fitDimension(nodes int) int {
	for d := 2; d <= 20; d++ {
		if d*(1<<uint(d)) >= nodes*2 {
			return d
		}
	}
	return 20
}

// buildSystem constructs the named system through the deployment registry,
// the one list of systems, over nodes synthetic peer addresses.
func buildSystem(name string, d int, bits uint, schema *resource.Schema, nodes int, logger *slog.Logger) (discovery.System, error) {
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("peer-%04d", i)
	}
	opts := systemtest.Options{D: d, Bits: bits, Logger: logger}
	for _, spec := range systemtest.Registry() {
		if spec.Name == name {
			return spec.Build(&systemtest.Deployment{Schema: schema, N: nodes}, schema, addrs, opts)
		}
	}
	return nil, fmt.Errorf("unknown system %q", name)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7400", "TCP listen address")
	system := fs.String("system", "lorm", "discovery system: lorm, mercury, sword, maan, art")
	d := fs.Int("d", 0, "Cycloid dimension (lorm); 0 auto-sizes to the peer count")
	bits := fs.Uint("bits", 20, "Chord identifier bits (mercury/sword/maan)")
	nodes := fs.Int("nodes", 256, "number of simulated peers in the deployment")
	attrs := fs.String("attrs", "cpu:100:3200,mem:0:8192,disk:1:2000", "attribute schema")
	mlisten := fs.String("metrics-listen", "", "serve /metrics, /healthz, /trace and /debug/pprof on this HTTP address")
	addrFile := fs.String("addr-file", "", "write the bound gateway address to this file once listening (for port-0 spawners like lormcluster)")
	maddrFile := fs.String("metrics-addr-file", "", "write the bound observability HTTP address to this file once listening")
	hopLatency := fs.Duration("hop-latency", 0, "emulate this much wide-area delay per overlay message (0 disables)")
	logJSON := fs.Bool("log-json", false, "emit logs as structured JSON instead of text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	sample := fs.Float64("trace-sample", 0, "head-sampling probability for distributed tracing (0 disables, 1 samples everything)")
	slowMS := fs.Float64("slow-ms", 0, "dump sampled operations at least this many milliseconds long to the log (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(os.Stderr, *logJSON, *logLevel)
	if err != nil {
		return err
	}
	schema, err := parseAttrs(*attrs)
	if err != nil {
		return err
	}
	if *d == 0 {
		*d = fitDimension(*nodes)
	}
	sys, err := buildSystem(*system, *d, *bits, schema, *nodes, logger)
	if err != nil {
		return err
	}
	// The tracer is always attached (so /trace and the tracing counter
	// families exist); the sampling rate decides whether it records spans.
	tracer := tracing.New(tracing.Config{
		Seed:          time.Now().UnixNano(),
		SampleRate:    *sample,
		SlowThreshold: time.Duration(*slowMS * float64(time.Millisecond)),
		SlowLog:       os.Stderr,
	})
	if inst, ok := sys.(routing.Instrumented); ok {
		if f := inst.RoutingFabric(); f != nil {
			f.Observe(tracer)
		}
	}
	// Wide-area emulation wraps the system after tracer attachment so spans
	// keep observing the raw fabric; the served verbs pay the per-message
	// delay a real grid deployment would.
	served := emulate.WithHopLatency(sys, *hopLatency)
	srv, err := transport.NewServer(served, *listen, logger)
	if err != nil {
		return err
	}
	logger.Info("serving", "system", sys.Name(), "peers", sys.NodeCount(),
		"attributes", schema.Len(), "addr", srv.Addr(), "trace_sample", *sample,
		"hop_latency", *hopLatency)
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, srv.Addr()); err != nil {
			srv.Close()
			return err
		}
	}
	if *mlisten != "" {
		msrv, maddr, err := startMetricsServer(*mlisten, tracer)
		if err != nil {
			srv.Close()
			return err
		}
		defer msrv.Close()
		logger.Info("observability endpoint up", "metrics", "http://"+maddr+"/metrics", "trace", "http://"+maddr+"/trace")
		if *maddrFile != "" {
			if err := writeAddrFile(*maddrFile, maddr); err != nil {
				srv.Close()
				return err
			}
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	return srv.Close()
}

// writeAddrFile publishes a bound address for a spawning process: written
// to a temp file first and renamed into place so a watcher never reads a
// partial address.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// buildLogger assembles the serve logger: leveled, structured, text or JSON
// on w — the single handler every component (transport server, slow-op
// dumps' neighbor lines, membership events) logs through.
func buildLogger(w *os.File, asJSON bool, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h), nil
}

// startMetricsServer binds the observability HTTP endpoint: the process
// metrics registry (Prometheus text, or JSON via ?format=json), a liveness
// probe, the collected trace spans as JSONL (the cmd/lormtrace input
// format), and the runtime profiler. Returns the server and the bound
// address (addr may carry port 0).
func startMetricsServer(addr string, tracer *tracing.Tracer) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Default().Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		tracer.Collector().WriteJSONL(w)
	})
	// Mount pprof explicitly: the side-effect registration in net/http/pprof
	// targets http.DefaultServeMux, which this server does not use.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

func dial(fs *flag.FlagSet) (*transport.Client, *string) {
	gateway := fs.String("gateway", "127.0.0.1:7400", "gateway address")
	return nil, gateway
}

func cmdRegister(args []string) error {
	fs := flag.NewFlagSet("register", flag.ContinueOnError)
	_, gateway := dial(fs)
	attr := fs.String("attr", "", "attribute name")
	value := fs.Float64("value", 0, "attribute value")
	owner := fs.String("owner", "", "owner address to advertise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *attr == "" || *owner == "" {
		return fmt.Errorf("register needs -attr and -owner")
	}
	cli, err := transport.Dial(*gateway, 3*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()
	cost, err := cli.Register(resource.Info{Attr: *attr, Value: *value, Owner: *owner})
	if err != nil {
		return err
	}
	fmt.Printf("registered <%s, %g, %s> (%s)\n", *attr, *value, *owner, cost)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	_, gateway := dial(fs)
	q := fs.String("q", "", "query spec: attr:lo:hi[,attr:lo:hi...]")
	requester := fs.String("requester", "cli", "requester identity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *q == "" {
		return fmt.Errorf("query needs -q")
	}
	subs, err := parseQuery(*q)
	if err != nil {
		return err
	}
	cli, err := transport.Dial(*gateway, 3*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()
	owners, matches, cost, err := cli.Discover(subs, *requester)
	if err != nil {
		return err
	}
	fmt.Printf("query cost: %s\n", cost)
	fmt.Printf("matching pieces: %d\n", len(matches))
	if len(owners) == 0 {
		fmt.Println("no owner satisfies every sub-query")
		return nil
	}
	fmt.Println("owners satisfying all sub-queries:")
	for _, o := range owners {
		fmt.Printf("  %s\n", o)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	_, gateway := dial(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, err := transport.Dial(*gateway, 3*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()
	st, err := cli.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("system: %s\nnodes: %d\nattributes: %d\npieces stored: %d\navg directory: %.2f\nmax directory: %d\n",
		st.System, st.Nodes, st.Attributes, st.TotalPieces, st.AvgDir, st.MaxDir)
	if st.Metrics != nil {
		fmt.Printf("routing ops observed: %d\n", st.Metrics.TotalOps)
		for _, sm := range st.Metrics.Systems {
			fmt.Printf("  %-8s ops: %-6d p50 hops: %-5.1f p99 hops: %.1f\n",
				sm.System, sm.Ops, sm.P50Hops, sm.P99Hops)
		}
		fmt.Printf("lookup detours: %d\nquery failures: %d\ncrashes injected: %d\nentries lost to crashes: %d\n",
			st.Metrics.LookupDetours, st.Metrics.QueryFailures, st.Metrics.Crashes, st.Metrics.LostEntries)
		fmt.Printf("directory adds: %d\ndirectory matches: %d\ndirectory entries handed over: %d\n",
			st.Metrics.DirAdds, st.Metrics.DirMatches, st.Metrics.DirHandovers)
	}
	return nil
}

func cmdMembership(args []string, add bool) error {
	name := "removenode"
	if add {
		name = "addnode"
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	_, gateway := dial(fs)
	node := fs.String("node", "", "peer name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return fmt.Errorf("%s needs -node", name)
	}
	cli, err := transport.Dial(*gateway, 3*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()
	if add {
		if err := cli.AddNode(*node); err != nil {
			return err
		}
		fmt.Printf("node %s joined\n", *node)
		return nil
	}
	if err := cli.RemoveNode(*node); err != nil {
		return err
	}
	fmt.Printf("node %s departed gracefully\n", *node)
	return nil
}
