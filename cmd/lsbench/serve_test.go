package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read what serve has printed so far; wrote, when
// set, is signalled on each write.
type syncBuffer struct {
	mu    sync.Mutex
	b     bytes.Buffer
	wrote chan struct{}
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.wrote <- struct{}{}:
	default:
	}
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

type closeCounter struct{ n int }

func (c *closeCounter) Close() error { c.n++; return nil }

// run starts the skeleton and returns its exit code through a channel.
func run(r role, sig <-chan os.Signal, stdout, stderr *syncBuffer) <-chan int {
	code := make(chan int, 1)
	go func() { code <- serve("lsbench serve fake", r, sig, stdout, stderr) }()
	return code
}

func wait(t *testing.T, code <-chan int) int {
	t.Helper()
	select {
	case c := <-code:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return")
		return -1
	}
}

// TestServeAnnouncesBoundAddressAndDrains drives the real HTTP role from
// 127.0.0.1:0: the announcement carries the port the kernel chose, the role
// answers on it, and the first signal shuts the listener, closes the backend
// once and exits 0.
func TestServeAnnouncesBoundAddressAndDrains(t *testing.T) {
	stdout, stderr := syncBuffer{wrote: make(chan struct{}, 1)}, syncBuffer{}
	var backend closeCounter
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) })
	r, err := httpRole("127.0.0.1:0", ok, &backend, "fake")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 2)
	code := run(r, sig, &stdout, &stderr)

	select {
	case <-stdout.wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("no announcement")
	}
	if out := stdout.String(); strings.HasSuffix(r.addr, ":0") || !strings.Contains(out, "listening on "+r.addr+" (fake)") {
		t.Fatalf("announcement does not carry the bound address %s: %q", r.addr, out)
	}
	resp, err := http.Get("http://" + r.addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sig <- syscall.SIGTERM
	if c := wait(t, code); c != 0 {
		t.Fatalf("exit %d after a clean drain; stderr %q", c, stderr.String())
	}
	if !strings.Contains(stdout.String(), "drained, bye") {
		t.Fatalf("no farewell: %q", stdout.String())
	}
	if backend.n != 1 {
		t.Fatalf("backend closed %d times, want 1", backend.n)
	}
	if _, err := net.DialTimeout("tcp", r.addr, time.Second); err == nil {
		t.Fatal("listener still accepting after the drain")
	}
}

// TestServeSecondSignalCutsDrain: a second signal while drain is blocked
// gives up with exit 1 instead of waiting for it.
func TestServeSecondSignalCutsDrain(t *testing.T) {
	var stdout, stderr syncBuffer
	draining := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	r := role{
		addr: "127.0.0.1:1",
		drain: func(context.Context) error {
			close(draining)
			<-release
			return nil
		},
		budget: time.Minute,
	}
	sig := make(chan os.Signal, 2)
	code := run(r, sig, &stdout, &stderr)
	sig <- syscall.SIGTERM
	<-draining
	sig <- os.Interrupt
	if c := wait(t, code); c != 1 {
		t.Fatalf("exit %d, want 1", c)
	}
	if out := stdout.String(); !strings.Contains(out, "again") || strings.Contains(out, "drained") {
		t.Fatalf("second signal not reported as a cut drain: %q", out)
	}
}

// TestServeBusyPortFailsBeforeAnnouncing: at an address that is already
// taken the HTTP role releases its backend and does not exist, and the real
// worker role exits 1 having printed no "listening" line.
func TestServeBusyPortFailsBeforeAnnouncing(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	var backend closeCounter
	if _, err := httpRole(busy.Addr().String(), http.NotFoundHandler(), &backend, "fake"); err == nil || backend.n != 1 {
		t.Fatalf("bind on a busy port: err %v, backend closed %d times", err, backend.n)
	}

	captured, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = captured
	code := serveMain([]string{"worker", "-addr", busy.Addr().String(), "-store", ""})
	os.Stdout = stdout
	out, err := os.ReadFile(captured.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || strings.Contains(string(out), "listening") {
		t.Fatalf("exit %d, stdout %q: want 1 and no announcement", code, out)
	}
}

// TestServeRolesAreSutAndWorker: the retired coordinator role, like any
// unknown role, is a usage error (exit 2) whose usage line names exactly the
// two roles there are.
func TestServeRolesAreSutAndWorker(t *testing.T) {
	captured, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = captured
	code := serveMain([]string{"coordinator"})
	os.Stderr = stderr
	out, err := os.ReadFile(captured.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || !strings.HasPrefix(string(out), "usage: lsbench serve sut|worker [flags]") {
		t.Fatalf("exit %d, stderr %q: want 2 and the usage line for sut|worker", code, out)
	}
}
