package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// Options tunes a Client's failure handling. The zero value gets sane
// defaults from withDefaults; Dial keeps the legacy two-argument shape.
type Options struct {
	// DialTimeout bounds one TCP connect attempt (default 3s).
	DialTimeout time.Duration
	// CallTimeout is the per-call round-trip deadline covering both the
	// request write and the response read (default 15s; negative disables).
	CallTimeout time.Duration
	// Retries is how many additional attempts a failed dial or call gets
	// beyond the first (default 2; negative disables). Wire-level call
	// failures are only retried for idempotent operations — once a
	// register or membership change may have reached the server, it is
	// returned to the caller rather than replayed.
	Retries int
	// RetryBackoff is the base of the exponential backoff between attempts;
	// attempt k sleeps around RetryBackoff·2^(k-1) with ±50% jitter, capped
	// at one second (default 50ms).
	RetryBackoff time.Duration
	// Dialer, when non-nil, replaces net.DialTimeout for every connect and
	// reconnect — the seam fault-injection tests use to put a netfault
	// plane between the client and the gateway.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Window bounds how many data-verb calls (register/discover and their
	// batch forms) may be in flight on the multiplexed connection at once
	// (default 32). Window 1 restores one-request-per-round-trip behavior;
	// control verbs (ping/stats/membership) bypass the window so they can
	// never queue behind a saturating batch workload.
	Window int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 15 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 32
	}
	return o
}

// Client is a multiplexed connection to a gateway server, safe for
// concurrent use: N concurrent callers share one socket through a
// pipelined request/response pipe (see pipeline.go) with a bounded
// in-flight window, instead of serializing a full round trip each. Window
// 1 restores the legacy one-request-per-round-trip behavior.
//
// The client survives transport faults: a call that fails at the wire
// level — write error, read error, per-call deadline, response-ID
// mismatch — kills the pipe (failing all outstanding calls fast), and the
// next attempt redials instead of reading from a desynchronized stream.
// Idempotent operations (ping, stats, discover and discover batches) are
// retried with exponential backoff; mutating operations fail fast once
// the request may have been processed.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	p      *pipe
	closed bool
}

// Dial connects to a gateway with the given dial timeout and default
// failure handling.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects to a gateway, retrying the dial itself with backoff.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			mClientRetries.Inc()
			time.Sleep(backoff(c.opts.RetryBackoff, attempt))
		}
		c.mu.Lock()
		_, err := c.pipeLocked()
		c.mu.Unlock()
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Close tears down the connection and fails any outstanding calls.
func (c *Client) Close() error {
	c.mu.Lock()
	p := c.p
	c.p = nil
	c.closed = true
	c.mu.Unlock()
	if p != nil {
		p.close()
	}
	return nil
}

// pipe returns a live pipe, redialing if the previous one died.
func (c *Client) pipe() (*pipe, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipeLocked()
}

// pipeLocked replaces a dead pipe with a fresh connection; callers hold
// c.mu. A redial (as opposed to the first dial) is counted.
func (c *Client) pipeLocked() (*pipe, error) {
	if c.closed {
		return nil, errClientClosed
	}
	if c.p != nil {
		if !c.p.broken() {
			return c.p, nil
		}
		c.p = nil
		mClientRedials.Inc()
	}
	dial := c.opts.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	c.p = newPipe(conn, c.opts.Window)
	return c.p, nil
}

// serverError is an application-level failure relayed in a well-formed
// response: the connection is healthy and the request definitively
// processed, so it is never retried and never poisons the connection.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "transport: server error: " + e.msg }

// idempotent reports whether op can be safely replayed after the original
// request may already have been processed by the server. Register batches
// are mutating like their singular form; discover batches are read-only.
func idempotent(op Op) bool {
	switch op {
	case OpPing, OpStats, OpDiscover, OpDiscoverBatch:
		return true
	}
	return false
}

// isTimeout reports whether err is a network timeout (a missed deadline).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// backoff returns the sleep before retry attempt k ≥ 1: exponential in k
// with ±50% jitter, capped at one second so a retry burst stays bounded.
func backoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt-1)
	if d > time.Second {
		d = time.Second
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// call performs one pipelined exchange, redialing dead pipes and retrying
// with backoff per the client options. The client mutex is held only while
// resolving the pipe, never across the round trip, so concurrent callers —
// including control verbs issued alongside a saturating batch workload —
// proceed in parallel on the shared connection.
func (c *Client) call(req *Request) (*Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > c.opts.Retries {
				return nil, lastErr
			}
			mClientRetries.Inc()
			time.Sleep(backoff(c.opts.RetryBackoff, attempt))
		}
		p, err := c.pipe()
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return nil, err
			}
			lastErr = err // dial errors are retryable for every op
			continue
		}
		// Each attempt gets its own Request copy: a dead pipe's writer may
		// still be encoding the previous attempt's frame when the retry
		// stamps a new connection-local ID. The payload slices are shared
		// read-only; only the header fields are written.
		attemptReq := *req
		pc := &pendingCall{req: &attemptReq, windowed: windowed(req.Op), done: make(chan struct{})}
		resp, err := p.do(pc, c.opts.CallTimeout)
		if err == nil {
			return resp, nil
		}
		var se *serverError
		if errors.As(err, &se) {
			return nil, err
		}
		// Wire-level failure: the pipe is already dead, the next attempt
		// redials. Only a call's own missed deadline counts as a timeout —
		// collateral errPipelineBroken failures carry the cause by message.
		lastErr = err
		if isTimeout(err) {
			mClientTimeouts.Inc()
		}
		if !idempotent(req.Op) {
			return nil, err // request may have been processed: don't replay
		}
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Op: OpPing})
	return err
}

// Register announces one piece of resource information.
func (c *Client) Register(info resource.Info) (discovery.Cost, error) {
	return c.RegisterTraced(info, discovery.TraceContext{})
}

// RegisterTraced is Register carrying the caller's trace context over the
// wire, so the gateway's server-side spans parent under the caller's span.
// A zero context sends no trace field at all (byte-identical to Register).
func (c *Client) RegisterTraced(info resource.Info, tc discovery.TraceContext) (cost discovery.Cost, err error) {
	resp, err := c.call(&Request{Op: OpRegister, Info: &info, Trace: wireTrace(tc)})
	if err != nil {
		return cost, err
	}
	return resp.Cost, nil
}

// Discover resolves a multi-attribute (range) query remotely.
func (c *Client) Discover(subs []resource.SubQuery, requester string) ([]string, []resource.Info, discovery.Cost, error) {
	return c.DiscoverTraced(subs, requester, discovery.TraceContext{})
}

// DiscoverTraced is Discover carrying the caller's trace context over the
// wire. A zero context sends no trace field at all.
func (c *Client) DiscoverTraced(subs []resource.SubQuery, requester string, tc discovery.TraceContext) (owners []string, matches []resource.Info, cost discovery.Cost, err error) {
	resp, err := c.call(&Request{Op: OpDiscover, Subs: subs, Requester: requester, Trace: wireTrace(tc)})
	if err != nil {
		return nil, nil, cost, err
	}
	return resp.Owners, resp.Matches, resp.Cost, nil
}

// wireTrace boxes a trace context for the wire; invalid contexts stay off
// the frame entirely so untraced traffic is unchanged on the wire.
func wireTrace(tc discovery.TraceContext) *discovery.TraceContext {
	if !tc.Valid() {
		return nil
	}
	return &tc
}

// Stats fetches the gateway's deployment summary.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.call(&Request{Op: OpStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, fmt.Errorf("transport: stats response without payload")
	}
	return *resp.Stats, nil
}

// RegisterBatch announces many pieces in one frame, amortizing codec and
// syscall cost; items fail independently in the returned results.
func (c *Client) RegisterBatch(infos []resource.Info) ([]BatchResult, error) {
	return c.RegisterBatchTraced(infos, discovery.TraceContext{})
}

// RegisterBatchTraced is RegisterBatch carrying the caller's trace context;
// every item's server-side spans parent under the same caller span.
func (c *Client) RegisterBatchTraced(infos []resource.Info, tc discovery.TraceContext) ([]BatchResult, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("transport: empty register batch")
	}
	resp, err := c.call(&Request{Op: OpRegisterBatch, Infos: infos, Trace: wireTrace(tc)})
	if err != nil {
		return nil, err
	}
	return batchResults(resp, len(infos))
}

// DiscoverBatch resolves many multi-attribute queries in one frame; items
// fail independently in the returned results.
func (c *Client) DiscoverBatch(queries []BatchQuery) ([]BatchResult, error) {
	return c.DiscoverBatchTraced(queries, discovery.TraceContext{})
}

// DiscoverBatchTraced is DiscoverBatch carrying the caller's trace context.
func (c *Client) DiscoverBatchTraced(queries []BatchQuery, tc discovery.TraceContext) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("transport: empty discover batch")
	}
	resp, err := c.call(&Request{Op: OpDiscoverBatch, Queries: queries, Trace: wireTrace(tc)})
	if err != nil {
		return nil, err
	}
	return batchResults(resp, len(queries))
}

// batchResults validates a batch response's shape: exactly one result per
// item, in order.
func batchResults(resp *Response, want int) ([]BatchResult, error) {
	if len(resp.Results) != want {
		return nil, fmt.Errorf("transport: batch response has %d results for %d items", len(resp.Results), want)
	}
	return resp.Results, nil
}

// AddNode joins a new node into the gateway's deployment.
func (c *Client) AddNode(addr string) error {
	_, err := c.call(&Request{Op: OpAddNode, Addr: addr})
	return err
}

// RemoveNode gracefully departs a node from the gateway's deployment.
func (c *Client) RemoveNode(addr string) error {
	_, err := c.call(&Request{Op: OpRemove, Addr: addr})
	return err
}
