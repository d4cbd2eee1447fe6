package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netdriver"
	"repro/internal/pager"
	"repro/internal/service"
)

// role is one bound `lsbench serve` listener.
type role struct {
	// addr is the bound address; detail follows it in the announcement.
	addr, detail string
	// failed delivers a serving error that arrives after the bind (nil: none can).
	failed <-chan error
	// drain stops accepting and finishes in-flight work; ctx ends after budget.
	drain  func(ctx context.Context) error
	budget time.Duration
}

// serveMain is `lsbench serve ROLE [flags]`: the role parses its flags and
// binds, the skeleton does the rest; the result is the process exit code.
func serveMain(args []string) int {
	roles := map[string]func(string, []string) (role, error){
		"sut": sutRole, "worker": workerRole,
	}
	if len(args) == 0 || roles[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: lsbench serve sut|worker [flags]    (-h after the role lists its flags)")
		return 2
	}
	name := "lsbench serve " + args[0]
	r, err := roles[args[0]](name, args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	sig := make(chan os.Signal, 2) // the drain signal and the give-up signal
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return serve(name, r, sig, os.Stdout, os.Stderr)
}

// serve is the one serving skeleton: announce the bound address, wait for a
// signal, drain within the role's budget. It returns 0 after a clean drain
// and 1 when serving or the drain failed or a second signal cut the drain
// short.
func serve(name string, r role, sig <-chan os.Signal, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "%s: listening on %s (%s)\n", name, r.addr, r.detail)
	var failure error
	select {
	case failure = <-r.failed:
	case s := <-sig:
		fmt.Fprintf(stdout, "%s: %v — draining\n", name, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), r.budget)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- errors.Join(failure, r.drain(ctx)) }()
	select {
	case err := <-drained:
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
	case s := <-sig:
		fmt.Fprintf(stdout, "%s: %v again — dropping remaining work\n", name, s)
		return 1
	}
	fmt.Fprintf(stdout, "%s: drained, bye\n", name)
	return 0
}

// sutRole serves a SUT over TCP so a benchmark driver on another machine can
// measure it — the paper's §V-A deployment ("the benchmark driver should
// ideally run on a separate machine"). Pair it with `lsbench -remote
// host:port`.
func sutRole(name string, args []string) (role, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":7070", "listen address")
		sut       = fs.String("sut", "btree", "SUT served per connection: "+strings.Join(core.SUTNames(), ","))
		ioTimeout = fs.Duration("io-timeout", 0, "per-frame read/write deadline (0 = none); reclaims connections from dead drivers")
	)
	fs.Parse(args)

	factory, err := core.SUTByName(*sut, pager.DefaultPoolKnobs())
	if err != nil {
		return role{}, err
	}
	srv, err := netdriver.ServeOptions(*addr, factory, netdriver.Options{
		ReadTimeout:  *ioTimeout,
		WriteTimeout: *ioTimeout,
	})
	if err != nil {
		return role{}, err
	}
	return role{
		addr:   srv.Addr(),
		detail: fmt.Sprintf("serving %s, fresh instance per connection", *sut),
		// Drain: stop accepting, then let every in-flight benchmark session
		// run to completion instead of dropping a driver mid-measurement.
		// Close blocks on the connection handlers' wait group.
		drain: func(ctx context.Context) error {
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				return err
			case <-ctx.Done():
				return errors.New("drain timeout — dropping remaining connections")
			}
		},
		budget: 2 * time.Minute,
	}, nil
}

// httpRole is the listener half of the worker role: bind (a role exists,
// and is announced, only once that succeeded), hand a later serving error to
// the skeleton, and on drain let in-flight requests finish within the
// budget, then close the backend — which waits for the work it accepted.
func httpRole(addr string, h http.Handler, backend io.Closer, detail string) (role, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		backend.Close()
		return role{}, err
	}
	srv := &http.Server{Handler: h}
	failed := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			failed <- err
		}
	}()
	return role{
		addr:   ln.Addr().String(),
		detail: detail,
		failed: failed,
		drain: func(ctx context.Context) error {
			return errors.Join(srv.Shutdown(ctx), backend.Close())
		},
		budget: 10 * time.Second,
	}, nil
}

// workerRole runs the benchmark as a service (paper §V-B): an HTTP daemon
// that accepts scenario×SUT job submissions, executes them on a bounded
// worker queue under the deterministic virtual-clock runner, persists every
// result to an append-only JSON-lines store, and serves a leaderboard over
// it. Sealed hold-out scenarios (JSON files in -holdouts) may be consumed
// exactly once per SUT. On drain, queued and running jobs finish and
// persist. README.md walks through the API.
func workerRole(name string, args []string) (role, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		store    = fs.String("store", "results.jsonl", "result store path (JSON lines; record jobs keep their traces in traces/ beside it; empty = in-memory, record jobs refused)")
		holdouts = fs.String("holdouts", "", "directory of sealed hold-out scenario JSON files")
		workers  = fs.Int("workers", 2, "concurrent benchmark runs")
		queue    = fs.Int("queue", 16, "pending-job bound (full queue returns 429)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-job wall-clock timeout (0 = none)")
	)
	fs.Parse(args)

	reg := core.NewHoldoutRegistry()
	if *holdouts != "" {
		if err := registerHoldouts(name, reg, *holdouts); err != nil {
			return role{}, err
		}
	}
	svc, err := service.New(service.Config{
		Holdouts:   reg,
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *timeout,
		StorePath:  *store,
		LogWriter:  os.Stderr,
	})
	if err != nil {
		return role{}, err
	}
	return httpRole(*addr, svc.Handler(), svc, fmt.Sprintf("store %q, %d workers, queue %d, %d stored results",
		*store, *workers, *queue, svc.Store().Len()))
}

// registerHoldouts seals every *.json scenario in dir under its base name.
// Files are re-parsed per run, so each attempt gets fresh generators and
// the scenario contents never appear on the API.
func registerHoldouts(name string, reg *core.HoldoutRegistry, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		// Validate eagerly so a bad file fails at startup, not at the
		// (single!) submission that would consume an attempt.
		if _, err := config.Load(p); err != nil {
			return fmt.Errorf("hold-out %s: %w", p, err)
		}
		holdout := strings.TrimSuffix(filepath.Base(p), ".json")
		err := reg.Register(holdout, func() core.Scenario {
			sc, err := config.Load(p)
			if err != nil {
				// Validated at startup; a later parse failure means the
				// file changed underneath the sealed registry.
				panic(fmt.Sprintf("%s: hold-out %s: %v", name, p, err))
			}
			return sc
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s: sealed hold-out %q\n", name, holdout)
	}
	return nil
}
