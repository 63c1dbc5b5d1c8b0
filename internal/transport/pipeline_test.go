package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lorm/internal/netfault"
	"lorm/internal/resource"
)

// Concurrent callers on one client must multiplex over a single connection
// and all complete against a real gateway.
func TestPipelinedConcurrentCalls(t *testing.T) {
	srv, err := NewServer(testSystem(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	connsBefore := mConnections.Value()
	cli, err := DialOptions(srv.Addr(), Options{DialTimeout: time.Second, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const callers, each = 8, 20
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				owner := fmt.Sprintf("owner-%d-%d", c, i)
				if _, err := cli.Register(resource.Info{Attr: "cpu", Value: 100 + float64((c*each+i)%3100), Owner: owner}); err != nil {
					failures.Add(1)
					return
				}
				if _, _, _, err := cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, owner); err != nil {
					failures.Add(1)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d callers failed", n)
	}
	if got := mConnections.Value() - connsBefore; got != 1 {
		t.Fatalf("gateway saw %d connections for %d concurrent callers, want 1 (multiplexed)", got, callers)
	}
}

// The in-flight window must bound concurrent data verbs: with window=2 and
// a gateway that stalls until it has seen the window filled, a third
// discover must not reach the wire while two are outstanding.
func TestWindowBoundsInflight(t *testing.T) {
	inflight := new(atomic.Int64)
	peak := new(atomic.Int64)
	release := make(chan struct{})
	addr, _ := fakeGateway(t, func(conn net.Conn, n int) {
		var mu sync.Mutex // response writes
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			var req Request
			if err := readFrame(conn, &req); err != nil {
				return
			}
			cur := inflight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				<-release
				inflight.Add(-1)
				mu.Lock()
				defer mu.Unlock()
				writeFrame(conn, &Response{Version: Version, ID: req.ID, OK: true})
			}(req)
		}
	})
	opts := fastOpts()
	opts.Window = 2
	cli, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 0, High: 1}}, fmt.Sprintf("req-%d", i))
		}(i)
	}
	// Give the callers time to saturate the window, then drain everything.
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("gateway observed %d concurrent data verbs, want ≤ window (2)", got)
	}
}

// Control verbs must bypass the window: a ping issued while the window is
// saturated by stalled discovers must complete.
func TestControlVerbBypassesWindow(t *testing.T) {
	release := make(chan struct{})
	addr, _ := fakeGateway(t, func(conn net.Conn, n int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			var req Request
			if err := readFrame(conn, &req); err != nil {
				return
			}
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				if req.Op != OpPing {
					<-release // stall data verbs until the ping has proven itself
				}
				mu.Lock()
				defer mu.Unlock()
				writeFrame(conn, &Response{Version: Version, ID: req.ID, OK: true})
			}(req)
		}
	})
	opts := fastOpts()
	opts.Window = 1
	cli, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 0, High: 1}}, "saturator")
	}()
	time.Sleep(50 * time.Millisecond) // let the discover occupy the only slot

	done := make(chan error, 1)
	go func() { done <- cli.Ping() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ping behind a saturated window: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping queued behind the saturated window")
	}
	close(release)
	wg.Wait()
}

// A blackhole dropped onto a pipe with calls in flight must fail them all
// fast — the victim with its own timeout, the rest with a distinct
// collateral error — and clearing the fault must let the same client
// recover over a fresh connection, with the retry/redial counters moving.
func TestPipelineBlackholeFailsInflightAndRecovers(t *testing.T) {
	addr, accepts := fakeGateway(t, func(conn net.Conn, n int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			var req Request
			if err := readFrame(conn, &req); err != nil {
				return
			}
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				// Slow data verbs widen the in-flight window the blackhole
				// catches; pings answer immediately.
				if req.Op != OpPing {
					time.Sleep(100 * time.Millisecond)
				}
				mu.Lock()
				defer mu.Unlock()
				writeFrame(conn, &Response{Version: Version, ID: req.ID, OK: true})
			}(req)
		}
	})

	plane := netfault.NewPlane(1)
	opts := fastOpts()
	opts.CallTimeout = 400 * time.Millisecond
	opts.Retries = -1 // fail straight back so the in-flight errors are visible
	opts.Window = 16
	opts.Dialer = plane.Dialer("client", nil)
	cli, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping over healthy link: %v", err)
	}

	// Launch a burst of discovers, then blackhole the client→gateway
	// direction while they are in flight: their responses never arrive (the
	// server sees requests written before the fault; later writes vanish),
	// so the first deadline kills the pipe and the rest fail collaterally.
	timeoutsBefore := mClientTimeouts.Value()
	breaksBefore := mPipelineBreaks.Value()
	plane.Blackhole("client", addr)
	const burst = 8
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			_, _, _, err := cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 0, High: 1}}, fmt.Sprintf("req-%d", i))
			errs <- err
		}(i)
	}
	var timeouts, collateral int
	for i := 0; i < burst; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("discover succeeded through a blackhole")
		}
		switch {
		case isTimeout(err):
			timeouts++
		case errors.Is(err, errPipelineBroken):
			collateral++
		default:
			t.Fatalf("in-flight call failed with unclassified error: %v", err)
		}
	}
	if timeouts == 0 {
		t.Error("no call failed with its own timeout")
	}
	if collateral == 0 {
		t.Error("no call failed with the collateral pipeline error")
	}
	if got := mClientTimeouts.Value() - timeoutsBefore; got != uint64(timeouts) {
		t.Errorf("timeout counter moved by %d for %d timeout failures", got, timeouts)
	}
	if mPipelineBreaks.Value() == breaksBefore {
		t.Error("no pipeline break was counted")
	}

	// Heal and recover: the next calls redial a fresh pipe.
	redialsBefore := mClientRedials.Value()
	plane.ClearBlackhole("client", addr)
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after clearing the blackhole: %v", err)
	}
	if mClientRedials.Value() <= redialsBefore {
		t.Error("recovery did not redial")
	}
	if accepts.Load() < 2 {
		t.Fatalf("gateway saw %d connections, want at least 2 (original + post-heal redial)", accepts.Load())
	}
}

// After Close, calls fail with the client-closed error and never dial.
func TestCallsAfterCloseFail(t *testing.T) {
	_, cli := startPair(t)
	cli.Close()
	if err := cli.Ping(); !errors.Is(err, errClientClosed) {
		t.Fatalf("ping after Close = %v, want errClientClosed", err)
	}
}

// The inflight gauge must return to zero once a burst drains, and the peak
// must stay within the largest configured window (the metricscheck
// -transport invariant).
func TestInflightGaugeSettlesAndPeakBounded(t *testing.T) {
	srv, err := NewServer(testSystem(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialOptions(srv.Addr(), Options{DialTimeout: time.Second, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, fmt.Sprintf("req-%d", i))
		}(i)
	}
	wg.Wait()
	if got := mPipelineInflight.Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after the burst drained, want 0", got)
	}
	if peak, slots := mPipelineInflightPeak.Value(), mPipelineWindowSlots.Value(); peak > slots {
		t.Fatalf("inflight peak %d exceeds window slots %d", peak, slots)
	}
}

// tapConn sits under a client pipe's buffers, where the system calls would
// be: it counts socket writes, can hold the first one until released, and
// can be made to fail every later one.
type tapConn struct {
	net.Conn
	writes  atomic.Int64
	hold    chan struct{} // non-nil: the first Write waits for release
	held    sync.Once
	release sync.Once
	fail    atomic.Bool
}

func (c *tapConn) letGo() { c.release.Do(func() { close(c.hold) }) }

var errTapWrite = errors.New("tap: write refused")

func (c *tapConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errTapWrite
	}
	c.writes.Add(1)
	if c.hold != nil {
		c.held.Do(func() { <-c.hold })
	}
	return c.Conn.Write(p)
}

// tapped dials through a tapConn.
func tapped(t *testing.T, addr string, tap *tapConn) *Client {
	t.Helper()
	opts := fastOpts()
	opts.CallTimeout = 5 * time.Second
	opts.Retries = -1
	opts.Window = 16
	opts.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		tap.Conn = conn
		return tap, err
	}
	cli, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if tap.hold != nil {
			tap.letGo() // a failed test must not leave the writer stuck in the tap
		}
		cli.Close()
	})
	return cli
}

// waitFor polls cond, failing the test if it does not hold in time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Both ends buffer their writes and flush only when nobody else is about
// to write; a call alone on an idle pipe must still complete on its own,
// never held waiting for a second one to share the flush with.
func TestLoneCallOnIdlePipeIsNotHeld(t *testing.T) {
	_, cli := startPair(t)
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() { done <- cli.Ping() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("lone call %d was held", i)
		}
	}
}

// Callers that arrive while the writer is busy share its next flush: N
// frames reach the socket in fewer than N writes.
func TestConcurrentCallersShareSocketWrites(t *testing.T) {
	addr, _ := fakeGateway(t, func(conn net.Conn, n int) {
		for okPing(conn) {
		}
	})
	tap := &tapConn{hold: make(chan struct{})}
	cli := tapped(t, addr, tap)

	const callers = 8
	errs := make(chan error, callers)
	discover := func(i int) {
		_, _, _, err := cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 0, High: 1}}, fmt.Sprintf("req-%d", i))
		errs <- err
	}
	// The first call's flush is held in the socket, so the writer is busy
	// while the others arrive, and they queue behind it.
	go discover(0)
	waitFor(t, "the first frame to reach the socket", func() bool { return tap.writes.Load() == 1 })
	for i := 1; i < callers; i++ {
		go discover(i)
	}
	p, err := cli.pipe()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the other callers to queue", func() bool { return len(p.sendq) == callers-1 })
	tap.letGo()
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := tap.writes.Load(); got != 2 {
		t.Fatalf("%d frames took %d socket writes, want 2: the held one and one for the rest", callers, got)
	}
}

// A flush that fails is the failure of the call whose frame triggered it:
// that call gets the write error itself, every other in-flight call the
// collateral pipeline error.
func TestFailedFlushChargesItsCaller(t *testing.T) {
	var reads atomic.Int64
	addr, _ := fakeGateway(t, func(conn net.Conn, n int) {
		var req Request
		for readFrame(conn, &req) == nil { // read everything, answer nothing
			reads.Add(1)
		}
	})
	tap := &tapConn{}
	cli := tapped(t, addr, tap)

	const inflight = 4
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, _, _, err := cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 0, High: 1}}, fmt.Sprintf("req-%d", i))
			errs <- err
		}(i)
	}
	waitFor(t, "the in-flight calls to reach the gateway", func() bool { return reads.Load() == inflight })

	tap.fail.Store(true)
	if err := cli.Ping(); !errors.Is(err, errTapWrite) || errors.Is(err, errPipelineBroken) {
		t.Fatalf("culprit got %v, want the write error itself", err)
	}
	for i := 0; i < inflight; i++ {
		if err := <-errs; !errors.Is(err, errPipelineBroken) {
			t.Fatalf("bystander got %v, want the collateral pipeline error", err)
		}
	}
}

// countingWriter stands where a server connection's socket would be.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// The server's half of the rule: a lone response is flushed by its own
// sender, and of the senders queued on a connection's write lock only the
// last flushes, so their frames share one socket write.
func TestServerFlushCombinesQueuedResponses(t *testing.T) {
	sock := &countingWriter{}
	cw := &connWriter{bw: bufio.NewWriterSize(sock, wireBuf)}
	cw.send(&Response{Version: Version, ID: 1, OK: true})
	if sock.writes != 1 {
		t.Fatalf("a lone response took %d socket writes, want 1", sock.writes)
	}

	const senders = 8
	var wg sync.WaitGroup
	cw.mu.Lock() // a sender mid-write: the others queue behind it
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cw.send(&Response{Version: Version, ID: uint64(2 + i), OK: true})
		}(i)
	}
	waitFor(t, "the senders to queue", func() bool { return cw.queued.Load() == senders })
	cw.mu.Unlock()
	wg.Wait()
	if sock.writes != 2 {
		t.Fatalf("%d queued responses took %d socket writes, want 1", senders, sock.writes-1)
	}
	for i := 0; i < 1+senders; i++ {
		var resp Response
		if err := readFrame(&sock.Buffer, &resp); err != nil {
			t.Fatalf("frame %d of %d: %v", i, 1+senders, err)
		}
	}
}
