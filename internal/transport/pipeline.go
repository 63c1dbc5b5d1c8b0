package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// errPipelineBroken marks calls failed collaterally when their pipeline
// died: some other call's wire failure or deadline tore down the shared
// connection. The cause is carried in the message (not wrapped), so a
// collateral failure is never mistaken for the victim's own timeout.
var errPipelineBroken = errors.New("transport: pipeline failed")

// errClientClosed is returned by calls issued after Close.
var errClientClosed = errors.New("transport: client closed")

// callTimeoutError is the per-call deadline failure; it implements
// net.Error so isTimeout and the retry/accounting paths treat it exactly
// like a missed connection deadline.
type callTimeoutError struct{ after time.Duration }

func (e *callTimeoutError) Error() string {
	return fmt.Sprintf("transport: call timed out after %v", e.after)
}
func (e *callTimeoutError) Timeout() bool   { return true }
func (e *callTimeoutError) Temporary() bool { return true }

// pendingCall is one in-flight request on a pipe.
type pendingCall struct {
	req      *Request
	windowed bool // holds a window slot that resolve must release

	resp *Response
	err  error
	done chan struct{}
}

// pipe is one multiplexed connection. Callers register a pendingCall under
// a fresh connection-local ID, hand it to the writer goroutine through
// sendq, and wait; a single reader goroutine resolves responses back to
// their callers by ID. N concurrent callers therefore share one socket
// with up to `window` data-verb requests in flight, instead of serializing
// a full round trip each.
//
// A pipe dies exactly once (kill): the connection is closed, every
// outstanding call fails fast — the culprit with its own error, the rest
// with errPipelineBroken naming the cause — and the owning Client redials
// on next use.
type pipe struct {
	conn   net.Conn
	window int

	sendq chan *pendingCall
	sem   chan struct{} // window slots for data verbs
	dead  chan struct{} // closed by kill

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	next    uint64
	err     error // set once by kill

	wg sync.WaitGroup
}

// newPipe starts the writer and reader goroutines over conn.
func newPipe(conn net.Conn, window int) *pipe {
	p := &pipe{
		conn:    conn,
		window:  window,
		sendq:   make(chan *pendingCall, window),
		sem:     make(chan struct{}, window),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	trackPipelineWindow(window)
	p.wg.Add(2)
	go p.writeLoop()
	go p.readLoop()
	return p
}

// broken reports whether the pipe has died.
func (p *pipe) broken() bool {
	select {
	case <-p.dead:
		return true
	default:
		return false
	}
}

// kill tears the pipe down once: closes the connection (unblocking both
// loops), and fails every outstanding call. culprit, when non-nil, receives
// cause itself; every other call gets a distinct collateral error so the
// caller can tell its own failure from a neighbor's.
func (p *pipe) kill(cause error, culprit *pendingCall) {
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return
	}
	p.err = cause
	close(p.dead)
	pending := p.pending
	p.pending = make(map[uint64]*pendingCall)
	p.mu.Unlock()

	p.conn.Close()
	collateral := fmt.Errorf("%w: %v", errPipelineBroken, cause)
	for _, pc := range pending {
		if pc == culprit {
			p.resolve(pc, nil, cause)
		} else {
			p.resolve(pc, nil, collateral)
		}
	}
	if !errors.Is(cause, errClientClosed) {
		// A deliberate Close is not a failure; the breaks counter tracks
		// wire faults and missed deadlines only.
		mPipelineBreaks.Inc()
	}
	untrackPipelineWindow(p.window)
}

// resolve completes one call exactly once: records the outcome, releases
// its window slot, and wakes the caller.
func (p *pipe) resolve(pc *pendingCall, resp *Response, err error) {
	pc.resp, pc.err = resp, err
	if pc.windowed {
		<-p.sem
		mPipelineInflight.Dec()
	}
	close(pc.done)
}

// wireBuf sizes each end's buffered reader and writer: large enough that a
// window of small frames shares one system call, small enough that four of
// them per connection do not show in the gateway's live heap.
const wireBuf = 8 << 10

// writeLoop drains sendq onto the wire through a buffer it flushes whenever
// sendq is empty: a lone call's frame leaves at once, a burst of callers
// shares writes. Any write or flush error kills the pipe — after a partial
// frame the stream cannot be trusted — and is charged to the call whose
// frame triggered it; frames still buffered count as possibly sent.
func (p *pipe) writeLoop() {
	defer p.wg.Done()
	bw := bufio.NewWriterSize(p.conn, wireBuf)
	for {
		select {
		case pc := <-p.sendq:
			err := writeFrame(bw, pc.req)
			if err == nil && len(p.sendq) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				p.kill(err, pc)
				return
			}
		case <-p.dead:
			return
		}
	}
}

// readLoop resolves responses to pending calls by connection-local ID. A
// read error kills the pipe; so does a response for an ID that was never
// pending — on a live pipe that is a protocol violation, because pending
// entries only leave the map through this loop or through kill.
func (p *pipe) readLoop() {
	defer p.wg.Done()
	br := bufio.NewReaderSize(p.conn, wireBuf)
	for {
		var resp Response
		if err := readFrame(br, &resp); err != nil {
			p.kill(err, nil)
			return
		}
		p.mu.Lock()
		pc, ok := p.pending[resp.ID]
		if ok {
			delete(p.pending, resp.ID)
		}
		p.mu.Unlock()
		if !ok {
			p.kill(fmt.Errorf("transport: response for unknown request id %d", resp.ID), nil)
			return
		}
		if !resp.OK {
			p.resolve(pc, nil, &serverError{msg: resp.Error})
			continue
		}
		p.resolve(pc, &resp, nil)
	}
}

// close kills the pipe with the client-closed error and reaps its goroutines.
func (p *pipe) close() {
	p.kill(errClientClosed, nil)
	p.wg.Wait()
}

// do runs one call through the pipe: acquire a window slot (data verbs
// only), register under a fresh ID, enqueue for the writer, and wait for
// the reader or the per-call deadline. A missed deadline kills the pipe —
// the conservative reading of a stalled stream — which both fails the call
// with a timeout error and forces the redial the legacy client performed.
func (p *pipe) do(pc *pendingCall, timeout time.Duration) (*Response, error) {
	if pc.windowed {
		select {
		case p.sem <- struct{}{}:
			mPipelineInflight.Inc()
			trackPipelineInflight()
		case <-p.dead:
			return nil, fmt.Errorf("%w: %v", errPipelineBroken, p.deathErr())
		}
	}

	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		if pc.windowed {
			<-p.sem
			mPipelineInflight.Dec()
		}
		return nil, fmt.Errorf("%w: %v", errPipelineBroken, err)
	}
	p.next++
	pc.req.ID = p.next
	pc.req.Version = Version
	p.pending[pc.req.ID] = pc
	p.mu.Unlock()
	mPipelineCalls.Inc()

	select {
	case p.sendq <- pc:
	case <-p.dead:
		// kill owns every registered call; wait for our resolution below.
	}

	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case <-pc.done:
	case <-timeoutC:
		p.kill(&callTimeoutError{after: timeout}, pc)
		<-pc.done // kill resolves every registered call, including pc
	}
	return pc.resp, pc.err
}

// deathErr returns the error the pipe died with (nil while alive).
func (p *pipe) deathErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// windowed reports whether op consumes an in-flight window slot. Control
// verbs bypass the window: a ping or stats probe must never queue behind a
// window full of slow batches.
func windowed(op Op) bool {
	switch op {
	case OpRegister, OpDiscover, OpRegisterBatch, OpDiscoverBatch:
		return true
	}
	return false
}
