package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lorm/internal/core"
	"lorm/internal/resource"
)

func testSystem(t testing.TB) *core.System {
	t.Helper()
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
	)
	sys, err := core.New(core.Config{D: 6, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 48)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%04d", i)
	}
	if err := sys.AddNodes(addrs); err != nil {
		t.Fatal(err)
	}
	return sys
}

func startPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(testSystem(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{Version: Version, ID: 7, Op: OpPing}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Op != OpPing {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFrameCapEnforced(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var req Request
	err := readFrame(bytes.NewReader(hdr[:]), &req)
	if err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

func TestPing(t *testing.T) {
	_, cli := startPair(t)
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAndDiscoverOverTCP(t *testing.T) {
	_, cli := startPair(t)
	for _, in := range []resource.Info{
		{Attr: "cpu", Value: 2000, Owner: "site-a"},
		{Attr: "mem", Value: 4096, Owner: "site-a"},
		{Attr: "cpu", Value: 900, Owner: "site-b"},
	} {
		if _, err := cli.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	owners, matches, cost, err := cli.Discover([]resource.SubQuery{
		{Attr: "cpu", Low: 1500, High: 3200},
		{Attr: "mem", Low: 2048, High: 8192},
	}, "remote-requester")
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || owners[0] != "site-a" {
		t.Fatalf("owners = %v, want [site-a]", owners)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v, want 2 pieces", matches)
	}
	if cost.Hops <= 0 {
		t.Fatalf("cost = %+v, want positive hops", cost)
	}
}

func TestStats(t *testing.T) {
	_, cli := startPair(t)
	if _, err := cli.Register(resource.Info{Attr: "cpu", Value: 1000, Owner: "x"}); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.System != "lorm" || st.Nodes != 48 || st.Attributes != 2 || st.TotalPieces != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMembershipOps(t *testing.T) {
	_, cli := startPair(t)
	if err := cli.AddNode("tcp-joiner"); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 49 {
		t.Fatalf("nodes = %d after join, want 49", st.Nodes)
	}
	if err := cli.RemoveNode("tcp-joiner"); err != nil {
		t.Fatal(err)
	}
	if err := cli.RemoveNode("ghost"); err == nil {
		t.Fatal("removing unknown node should error")
	}
}

func TestServerErrors(t *testing.T) {
	_, cli := startPair(t)
	if _, err := cli.Register(resource.Info{Attr: "gpu", Value: 1, Owner: "x"}); err == nil {
		t.Fatal("unknown attribute should round-trip as error")
	}
	if _, _, _, err := cli.Discover(nil, "r"); err == nil {
		t.Fatal("empty discover should error")
	}
	// Raw connection: wrong version and unknown op.
	srv, err := NewServer(testSystem(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &Request{Version: 99, ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := readFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ID != 1 || !strings.Contains(resp.Error, "protocol version 99 unsupported") {
		t.Fatalf("version mismatch not answered explicitly, by ID: %+v", resp)
	}
	// The connection survives it: the frame boundary held.
	if err := writeFrame(conn, &Request{Version: Version, ID: 2, Op: Op(200)}); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("unknown op accepted: %+v", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := NewServer(testSystem(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				errc <- err
				return
			}
			defer cli.Close()
			for i := 0; i < 25; i++ {
				in := resource.Info{Attr: "cpu", Value: float64(500 + w*100 + i), Owner: fmt.Sprintf("w%d-%d", w, i)}
				if _, err := cli.Register(in); err != nil {
					errc <- err
					return
				}
				if _, _, _, err := cli.Discover([]resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, "r"); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalPieces != 8*25 {
		t.Fatalf("TotalPieces = %d, want 200", st.TotalPieces)
	}
}

func TestServerCloseTerminatesConnections(t *testing.T) {
	srv, cli := startPair(t)
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Ping(); err == nil {
		t.Fatal("ping after server close should fail")
	}
}
