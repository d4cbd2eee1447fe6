package netdriver

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestDialErrorTyped(t *testing.T) {
	// A listener we immediately close: the port is valid but nobody is
	// there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	_, err = Dial(addr)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !errors.Is(err, ErrDial) {
		t.Fatalf("dial failure is not ErrDial: %v", err)
	}
}

func TestListenErrorTyped(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", nil); !errors.Is(err, ErrListen) {
		t.Fatalf("bad listen addr is not ErrListen: %v", err)
	}
}

// silentListener accepts connections and reads requests but never
// responds — every client read times out.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	return l
}

func TestTimeoutIsTransient(t *testing.T) {
	l := silentListener(t)
	c, err := DialOptions(l.Addr().String(), Options{ReadTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.DoErr(workload.Op{Type: workload.Get, Key: 1})
	if err == nil {
		t.Fatal("silent server produced no error")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("response timeout is not ErrTransient: %v", err)
	}
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("error is not a WireError: %v", err)
	}
	if we.Stage != "response" {
		t.Fatalf("stage = %q, want response", we.Stage)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatal("underlying net timeout not reachable through errors.As")
	}
}

func TestClosedSessionIsFatal(t *testing.T) {
	// A listener that hangs up right after accepting: the session dies
	// mid-conversation and can never come back.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	c, err := DialOptions(l.Addr().String(), Options{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 50; i++ {
		if _, lastErr = c.DoErr(workload.Op{Type: workload.Get, Key: 1}); lastErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lastErr == nil {
		t.Fatal("ops kept succeeding on a hung-up session")
	}
	if !errors.Is(lastErr, ErrFatal) {
		t.Fatalf("dead session error is not ErrFatal: %v", lastErr)
	}
	if errors.Is(lastErr, ErrTransient) {
		t.Fatal("dead session classified transient")
	}
}

// TestRetryRecoversLostFrame: with retries enabled, a single swallowed
// request frame is re-sent after a timeout instead of failing the op.
func TestRetryRecoversLostFrame(t *testing.T) {
	srv := startServer(t)
	var dropped bool
	c, err := DialOptions(srv.Addr(), Options{
		ReadTimeout: 25 * time.Millisecond,
		MaxRetries:  2,
		RetrySeed:   9,
		WrapConn: func(conn net.Conn) net.Conn {
			return &dropFirstWriteConn{Conn: conn, dropped: &dropped}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.DoErr(workload.Op{Type: workload.Put, Key: 5, Value: 50})
	if err != nil {
		t.Fatalf("retry did not recover the dropped frame: %v", err)
	}
	if !dropped {
		t.Fatal("test conn never dropped a frame")
	}
	if c.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", c.Retries())
	}
	_ = res
	if r := c.Do(workload.Op{Type: workload.Get, Key: 5}); !r.Found {
		t.Fatal("retried Put lost")
	}
}

// dropFirstWriteConn swallows the first Write after the handshake-free
// dial — the minimal lossy wire.
type dropFirstWriteConn struct {
	net.Conn
	dropped *bool
}

func (d *dropFirstWriteConn) Write(p []byte) (int, error) {
	if !*d.dropped {
		*d.dropped = true
		return len(p), nil
	}
	return d.Conn.Write(p)
}

func TestBackoffSchedule(t *testing.T) {
	const base, max = 10 * time.Millisecond, 100 * time.Millisecond
	for _, tc := range []struct {
		name    string
		attempt int
		d       time.Duration // the un-jittered delay
	}{
		{"first", 0, base},
		{"doubles", 1, 2 * base},
		{"doubles again", 3, 8 * base},
		{"cap", 4, max}, // 160 ms > max
		{"far past the cap", 39, max},
		{"shift overflows to a negative", 40, max}, // 1e7 ns << 40 is past 2^63
		{"shift overflows to zero", 63, max},
		{"shift past the word", 200, max},
	} {
		for _, jitter := range []float64{0, 0.25, 0.5, 0.999999} {
			got := Backoff(base, max, tc.attempt, jitter)
			if got < tc.d/2 || got >= tc.d {
				t.Errorf("%s: Backoff(attempt %d, jitter %g) = %v, want in [%v, %v)", tc.name, tc.attempt, jitter, got, tc.d/2, tc.d)
			}
		}
		if lo, mid := Backoff(base, max, tc.attempt, 0), Backoff(base, max, tc.attempt, 0.5); lo != tc.d/2 || mid != tc.d/2+tc.d/4 {
			t.Errorf("%s: jitter 0 and 0.5 give %v and %v, want %v and %v", tc.name, lo, mid, tc.d/2, tc.d/2+tc.d/4)
		}
	}
}
