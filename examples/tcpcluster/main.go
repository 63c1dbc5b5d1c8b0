// Tcpcluster: resource discovery over real sockets.
//
// Starts a LORM gateway on a loopback TCP port (the same server that
// cmd/lormnode runs), then drives it from three concurrent clients: two
// provider sites streaming announcements and one requester resolving
// multi-attribute range queries — all through the length-prefixed binary
// wire protocol of internal/transport.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"lorm/internal/core"
	"lorm/internal/resource"
	"lorm/internal/transport"
)

func main() {
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 4000},
		resource.Attribute{Name: "memory", Min: 128, Max: 16384},
	)
	sys, err := core.New(core.Config{D: 6, Schema: schema})
	if err != nil {
		log.Fatal(err)
	}
	addrs := make([]string, 128)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("peer-%03d", i)
	}
	if err := sys.AddNodes(addrs); err != nil {
		log.Fatal(err)
	}

	srv, err := transport.NewServer(sys, "127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("gateway listening on %s\n", srv.Addr())

	// Two provider sites announce concurrently over their own connections.
	var wg sync.WaitGroup
	for site := 0; site < 2; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			cli, err := transport.Dial(srv.Addr(), time.Second)
			if err != nil {
				log.Fatal(err)
			}
			defer cli.Close()
			for i := 0; i < 20; i++ {
				owner := fmt.Sprintf("site%d-host%02d", site, i)
				cpu := float64(800 + site*400 + i*120)
				mem := float64(1024 + site*2048 + i*512)
				if _, err := cli.Register(resource.Info{Attr: "cpu", Value: cpu, Owner: owner}); err != nil {
					log.Fatal(err)
				}
				if _, err := cli.Register(resource.Info{Attr: "memory", Value: mem, Owner: owner}); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("site %d announced 20 hosts over TCP\n", site)
		}(site)
	}
	wg.Wait()

	// The requester resolves queries over its own connection.
	cli, err := transport.Dial(srv.Addr(), time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	st, err := cli.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngateway stats: %d peers, %d pieces stored, avg directory %.2f\n",
		st.Nodes, st.TotalPieces, st.AvgDir)

	queries := []struct {
		desc string
		subs []resource.SubQuery
	}{
		{"big machines: cpu ≥ 2500 ∧ mem ≥ 6144", []resource.SubQuery{
			{Attr: "cpu", Low: 2500, High: 4000},
			{Attr: "memory", Low: 6144, High: 16384},
		}},
		{"small machines: cpu ≤ 1200", []resource.SubQuery{
			{Attr: "cpu", Low: 100, High: 1200},
		}},
	}
	for _, q := range queries {
		owners, matches, cost, err := cli.Discover(q.subs, "tcp-requester")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n  %d matching pieces, %d qualifying hosts (%s)\n", q.desc, len(matches), len(owners), cost)
		for i, o := range owners {
			if i == 5 {
				fmt.Printf("  ... and %d more\n", len(owners)-5)
				break
			}
			fmt.Printf("  %s\n", o)
		}
	}

	// Membership change over the wire, then confirm the deployment grew.
	if err := cli.AddNode("late-joiner"); err != nil {
		log.Fatal(err)
	}
	st, err = cli.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter remote join: %d peers — discovery keeps working across membership changes\n", st.Nodes)
}
