// Command lsbenchd serves a system under test over TCP so a benchmark
// driver on another machine can measure it — the paper's §V-A deployment
// ("the benchmark driver should ideally run on a separate machine"). Pair
// it with `lsbench -remote host:port`.
//
// Usage:
//
//	lsbenchd [-addr :7070] [-sut NAME] [-io-timeout 0]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netdriver"
	"repro/internal/pager"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "listen address")
		sut       = flag.String("sut", "btree", "SUT served per connection: "+strings.Join(core.SUTNames(), ","))
		ioTimeout = flag.Duration("io-timeout", 0, "per-frame read/write deadline (0 = none); reclaims connections from dead drivers")
	)
	flag.Parse()

	factory, err := core.SUTByName(*sut, pager.DefaultPoolKnobs())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsbenchd:", err)
		os.Exit(2)
	}
	srv, err := netdriver.ServeOptions(*addr, factory, netdriver.Options{
		ReadTimeout:  *ioTimeout,
		WriteTimeout: *ioTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsbenchd:", err)
		os.Exit(1)
	}
	fmt.Printf("lsbenchd: serving %s on %s (fresh instance per connection)\n", *sut, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	// Drain: stop accepting, then let every in-flight benchmark session
	// run to completion instead of dropping a driver mid-measurement.
	// Close blocks on the connection handlers' wait group.
	fmt.Printf("lsbenchd: %v — draining in-flight connections\n", s)
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
		fmt.Println("lsbenchd: drained, bye")
	case s := <-sig:
		fmt.Printf("lsbenchd: %v again — dropping remaining connections\n", s)
		os.Exit(1)
	case <-time.After(2 * time.Minute):
		fmt.Println("lsbenchd: drain timeout — dropping remaining connections")
		os.Exit(1)
	}
}
