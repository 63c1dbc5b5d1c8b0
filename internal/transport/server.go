package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/metrics"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// Server-side I/O deadlines. The read deadline is an idle cap — how long a
// connection may sit between requests before the server reclaims it — so it
// is generous; the write deadline bounds one flush of buffered responses to a
// stalled peer. Package variables rather than constants so tests can shrink
// them.
var (
	serverReadTimeout  = 2 * time.Minute
	serverWriteTimeout = 15 * time.Second
)

// serverConnConcurrency bounds how many requests one connection may have
// executing at once. Pipelined clients keep many requests in flight;
// handling them concurrently (responses matched by ID, written under a
// per-connection mutex, order irrelevant) means a cheap control verb is
// never stuck behind a slow batch on the same socket. Serial legacy
// clients have at most one outstanding request and never observe
// reordering. Package variable so tests can shrink it.
var serverConnConcurrency = 32

// Server fronts a discovery.System on a TCP listener. Each connection is
// read by its own goroutine, which dispatches up to serverConnConcurrency
// requests at once (responses are matched by ID and may be written out of
// order); separate connections proceed concurrently too — the System
// implementations are concurrency-safe by construction.
type Server struct {
	sys discovery.System
	ln  net.Listener
	log *slog.Logger
	// obs observes the served system's routing fabric when the system is
	// routing.Instrumented; it feeds the process /metrics families and the
	// OpStats digest. fabric keeps the handle for detaching on Close.
	obs    *routing.MetricsObserver
	fabric *routing.Fabric

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving sys on addr (e.g. "127.0.0.1:7400"); addr with
// port 0 picks a free port, available via Addr. logger receives leveled
// structured events (accept failures at Warn, per-request lines at Debug
// with verb/remote/duration and the trace ID when the request is sampled);
// nil discards everything.
func NewServer(sys discovery.System, addr string, logger *slog.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{sys: sys, ln: ln, log: logger, conns: make(map[net.Conn]bool)}
	if inst, ok := sys.(routing.Instrumented); ok {
		// Wrappers (emulate.HopLatency) report nil for an uninstrumented core.
		if f := inst.RoutingFabric(); f != nil {
			s.fabric = f
			s.obs = routing.NewMetricsObserver(metrics.Default())
			s.fabric.Observe(s.obs)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and terminates open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if s.fabric != nil {
		s.fabric.Detach(s.obs)
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Warn("accept failed", "err", err)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		mConnections.Inc()
		mActiveConns.Inc()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// handlers tracks this connection's in-flight request goroutines; the
	// connection is closed only after they have all written (or failed).
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		mActiveConns.Dec()
	}()
	// Bytes are counted at the socket, under the buffers, so they stay exact.
	cc := countingConn{Conn: conn}
	br := bufio.NewReaderSize(cc, wireBuf)
	cw := &connWriter{conn: conn, log: s.log, bw: bufio.NewWriterSize(deadlineWriter{cc}, wireBuf)}
	sem := make(chan struct{}, serverConnConcurrency)
	for {
		if serverReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(serverReadTimeout))
		}
		req := new(Request) // each in-flight handler owns its request
		if err := readFrame(br, req); err != nil {
			var ve *versionError
			switch {
			case errors.As(err, &ve):
				// The frame boundary held, so the peer can be told, by ID.
				cw.send(&Response{Version: Version, ID: ve.id, Error: ve.Error()})
				continue
			case isTimeout(err):
				// Half-open or abandoned peer: reclaim the goroutine and fd.
				mIdleDisconnects.Inc()
			case !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed):
				// EOF (and its torn-connection variants) is an orderly close;
				// anything else is a malformed frame worth counting.
				mDecodeErrors.Inc()
			}
			return // EOF, deadline or protocol error: drop the connection
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer func() { <-sem }()
			start := time.Now()
			resp := s.handle(req)
			if s.log.Enabled(context.Background(), slog.LevelDebug) {
				args := []any{
					"verb", req.Op.String(),
					"remote", conn.RemoteAddr().String(),
					"dur", time.Since(start),
					"ok", resp.OK,
				}
				if req.Trace != nil && req.Trace.Sampled {
					args = append(args, "trace", fmt.Sprintf("%016x", req.Trace.TraceID))
				}
				s.log.Debug("request", args...)
			}
			cw.send(resp)
		}()
	}
}

// connWriter serializes one connection's response frames into a buffer and
// flush-combines them: every sender announces itself before taking the
// lock, and only a sender that leaves nobody announced behind it flushes.
// A lone response is therefore flushed by its own sender, never held, and
// the responses of a pipelined window share system calls.
type connWriter struct {
	conn   net.Conn
	log    *slog.Logger
	queued atomic.Int32 // senders that have a response and have not yet buffered it

	mu sync.Mutex
	bw *bufio.Writer
}

func (w *connWriter) send(resp *Response) {
	w.queued.Add(1)
	w.mu.Lock()
	err := writeFrame(w.bw, resp)
	flush := w.queued.Add(-1) == 0 && err == nil
	if flush {
		err = w.bw.Flush()
	}
	w.mu.Unlock()
	if err != nil {
		w.log.Warn("response write failed", "remote", w.conn.RemoteAddr().String(), "err", err)
		w.conn.Close() // wake the read loop; remaining handlers fail fast
	}
	if flush {
		yieldThread() // outside the lock: the next sender need not wait for us to be run again
	}
}

// deadlineWriter arms the write deadline before each write the buffer makes
// to the socket, a flush or an overflow alike, so each is bounded afresh.
type deadlineWriter struct{ countingConn }

func (w deadlineWriter) Write(p []byte) (int, error) {
	if serverWriteTimeout > 0 {
		w.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
	}
	return w.countingConn.Write(p)
}

// handle executes one request against the system.
func (s *Server) handle(req *Request) *Response {
	resp := &Response{Version: Version, ID: req.ID}
	fail := func(format string, args ...interface{}) *Response {
		resp.OK = false
		resp.Error = fmt.Sprintf(format, args...)
		return resp
	}
	countRequest(req.Op)
	switch req.Op {
	case OpPing:
		resp.OK = true

	case OpRegister:
		if req.Info == nil {
			return fail("register without info")
		}
		var cost discovery.Cost
		var err error
		if tr, ok := s.traced(req); ok {
			cost, err = tr.RegisterTraced(*req.Info, *req.Trace)
		} else {
			cost, err = s.sys.Register(*req.Info)
		}
		if err != nil {
			return fail("register: %v", err)
		}
		resp.OK = true
		resp.Cost = cost

	case OpDiscover:
		if len(req.Subs) == 0 {
			return fail("discover without sub-queries")
		}
		q := resource.Query{Subs: req.Subs, Requester: req.Requester}
		var res *discovery.Result
		var err error
		if tr, ok := s.traced(req); ok {
			res, err = tr.DiscoverTraced(q, *req.Trace)
		} else {
			res, err = s.sys.Discover(q)
		}
		if err != nil {
			return fail("discover: %v", err)
		}
		resp.OK = true
		resp.Cost = res.Cost
		resp.Owners = res.Owners
		for _, infos := range res.PerAttr {
			resp.Matches = append(resp.Matches, infos...)
		}

	case OpRegisterBatch:
		if len(req.Infos) == 0 {
			return fail("registerbatch without infos")
		}
		mBatchRegisterOps.Add(uint64(len(req.Infos)))
		tr, traced := s.traced(req)
		results := make([]BatchResult, len(req.Infos))
		for i := range req.Infos {
			var cost discovery.Cost
			var err error
			if traced {
				cost, err = tr.RegisterTraced(req.Infos[i], *req.Trace)
			} else {
				cost, err = s.sys.Register(req.Infos[i])
			}
			mBatchRegisterDispatched.Inc()
			if err != nil {
				results[i] = BatchResult{Error: err.Error()}
				continue
			}
			results[i] = BatchResult{OK: true, Cost: cost}
		}
		resp.OK = true
		resp.Results = results

	case OpDiscoverBatch:
		if len(req.Queries) == 0 {
			return fail("discoverbatch without queries")
		}
		mBatchDiscoverOps.Add(uint64(len(req.Queries)))
		tr, traced := s.traced(req)
		results := make([]BatchResult, len(req.Queries))
		for i, bq := range req.Queries {
			if len(bq.Subs) == 0 {
				mBatchDiscoverDispatched.Inc()
				results[i] = BatchResult{Error: "discover without sub-queries"}
				continue
			}
			q := resource.Query{Subs: bq.Subs, Requester: bq.Requester}
			var res *discovery.Result
			var err error
			if traced {
				res, err = tr.DiscoverTraced(q, *req.Trace)
			} else {
				res, err = s.sys.Discover(q)
			}
			mBatchDiscoverDispatched.Inc()
			if err != nil {
				results[i] = BatchResult{Error: err.Error()}
				continue
			}
			br := BatchResult{OK: true, Cost: res.Cost, Owners: res.Owners}
			for _, infos := range res.PerAttr {
				br.Matches = append(br.Matches, infos...)
			}
			results[i] = br
		}
		resp.OK = true
		resp.Results = results

	case OpStats:
		sizes := s.sys.DirectorySizes()
		total, max := 0, 0
		for _, sz := range sizes {
			total += sz
			if sz > max {
				max = sz
			}
		}
		avg := 0.0
		if len(sizes) > 0 {
			avg = float64(total) / float64(len(sizes))
		}
		resp.OK = true
		resp.Stats = &Stats{
			System:      s.sys.Name(),
			Nodes:       s.sys.NodeCount(),
			Attributes:  s.sys.Schema().Len(),
			TotalPieces: total,
			AvgDir:      avg,
			MaxDir:      max,
			Metrics:     s.metricsDigest(),
		}

	case OpAddNode:
		dyn, ok := s.sys.(discovery.Dynamic)
		if !ok {
			return fail("system %s does not support membership changes", s.sys.Name())
		}
		if req.Addr == "" {
			return fail("addnode without addr")
		}
		if err := dyn.AddNode(req.Addr); err != nil {
			return fail("addnode: %v", err)
		}
		resp.OK = true

	case OpRemove:
		dyn, ok := s.sys.(discovery.Dynamic)
		if !ok {
			return fail("system %s does not support membership changes", s.sys.Name())
		}
		if req.Addr == "" {
			return fail("removenode without addr")
		}
		if err := dyn.RemoveNode(req.Addr); err != nil {
			return fail("removenode: %v", err)
		}
		resp.OK = true

	default:
		return fail("unknown op %q", req.Op)
	}
	return resp
}

// traced reports whether the request carries a trace context the served
// system can join: untraced calls and systems without the Traced interface
// take the plain verbs.
func (s *Server) traced(req *Request) (discovery.Traced, bool) {
	if req.Trace == nil || !req.Trace.Valid() {
		return nil, false
	}
	tr, ok := s.sys.(discovery.Traced)
	return tr, ok
}

// metricsDigest condenses the fabric observer's view for the OpStats
// reply; nil when the served system is not instrumented.
func (s *Server) metricsDigest() *MetricsDigest {
	if s.obs == nil {
		return nil
	}
	total, systems := s.obs.Digest()
	d := &MetricsDigest{
		TotalOps:      total,
		LookupDetours: mdChordDetours.Value() + mdCycloidDetours.Value(),
		QueryFailures: mdChordFailures.Value() + mdCycloidFailures.Value(),
		Crashes:       mdCrashes.Value(),
		LostEntries:   mdLostEntries.Value(),
		DirAdds:       mdDirAdds.Value(),
		DirMatches:    mdDirMatches.Value(),
		DirHandovers:  mdDirHandovers.Value(),

		ReplicasPlaced:   mdReplicasPlaced.Value(),
		ReplicasDropped:  mdReplicasDropped.Value(),
		ReplicaReadHits:  mdReplicaReadHits.Value(),
		HotKeyPromotions: mdHotKeyPromotions.Value(),
		HotKeyDemotions:  mdHotKeyDemotions.Value(),

		Suspicions:        mdMemberSuspicions.Value(),
		SuspicionsCleared: mdMemberCleared.Value(),
		FailuresConfirmed: mdMemberConfirms.Value(),
		PartitionsStarted: mdNetPartitions.Value(),
		PartitionsHealed:  mdNetHealed.Value(),
		MessagesBlocked:   mdNetBlocked.Value(),

		PipelineCalls:   mPipelineCalls.Value(),
		PipelineBreaks:  mPipelineBreaks.Value(),
		BatchOps:        mBatchRegisterOps.Value() + mBatchDiscoverOps.Value(),
		BatchDispatched: mBatchRegisterDispatched.Value() + mBatchDiscoverDispatched.Value(),

		TrieDescents:    mdARTDescents.Value(),
		TrieFallbacks:   mdARTFallbacks.Value(),
		TrieBucketSplit: mdARTBucketSplits.Value(),
	}
	// Tracing families are labeled by system and owned by the tracer, so
	// the digest reads their totals from the process registry snapshot
	// instead of re-registering them with a different label shape.
	snap := metrics.Default().Snapshot()
	if f, ok := snap.Family("tracing_spans_sampled_total"); ok {
		d.SpansSampled = uint64(f.Total())
	}
	if f, ok := snap.Family("tracing_spans_dropped_total"); ok {
		d.SpansDropped = uint64(f.Total())
	}
	if f, ok := snap.Family("tracing_slow_ops_total"); ok {
		d.SlowOps = uint64(f.Total())
	}
	for _, sd := range systems {
		d.Systems = append(d.Systems, SystemMetrics{
			System:  sd.System,
			Ops:     sd.Ops,
			P50Hops: sd.P50Hops,
			P99Hops: sd.P99Hops,
		})
	}
	return d
}
