package netdriver

import (
	"errors"
	"net"
	"time"
)

// Sentinel errors for the wire layer. Every error the netdriver surfaces
// wraps exactly one stage sentinel (where it happened) and one class
// sentinel (whether retrying can help), so callers branch with errors.Is
// instead of string matching:
//
//	if errors.Is(err, netdriver.ErrTransient) { backoff and retry }
//	if errors.Is(err, netdriver.ErrDial)      { the server is not there }
var (
	// ErrListen marks a failure to bind the server's listener.
	ErrListen = errors.New("netdriver: listen")
	// ErrDial marks a failure to connect to the server.
	ErrDial = errors.New("netdriver: dial")
	// ErrTransient classifies failures worth retrying: timeouts and other
	// conditions the peer may recover from (a dropped frame, a stalled
	// worker). The client's backoff loop retries these.
	ErrTransient = errors.New("netdriver: transient")
	// ErrFatal classifies failures retrying cannot fix: closed or reset
	// connections, protocol desync, the peer gone for good. The client
	// latches these immediately.
	ErrFatal = errors.New("netdriver: fatal")
)

// WireError is the concrete error type of every client-side wire failure:
// the protocol stage it happened in, its retry class, and the underlying
// I/O error. It unwraps to both its class sentinel and the cause, so
// errors.Is works against ErrTransient/ErrFatal and against net errors.
type WireError struct {
	// Stage names the protocol step: "request", "response", "load",
	// "load ack".
	Stage string
	// Class is ErrTransient or ErrFatal.
	Class error
	// Err is the underlying I/O error.
	Err error
}

// Error implements error.
func (e *WireError) Error() string {
	return "netdriver: " + e.Stage + ": " + e.Err.Error()
}

// Unwrap exposes both the retry class and the cause to errors.Is/As.
func (e *WireError) Unwrap() []error { return []error{e.Class, e.Err} }

// classify maps an I/O error to its retry class: timeouts are transient
// (the frame may simply have been lost — retrying re-sends it); anything
// else (EOF, reset, closed) means the session is gone.
func classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTransient
	}
	return ErrFatal
}

// wireErr builds the stage-tagged, classified error for an I/O failure.
func wireErr(stage string, err error) *WireError {
	return &WireError{Stage: stage, Class: classify(err), Err: err}
}

// Backoff is the delay before retry attempt (0-based) of a transient
// failure — the one schedule every client in the tree sleeps on: base
// doubled per attempt and capped at max (d <= 0 is the shift overflowing,
// from attempt 63 at the latest), then placed in [d/2, d) by jitter, a
// seeded draw from [0, 1) so retry timing is reproducible.
func Backoff(base, max time.Duration, attempt int, jitter float64) time.Duration {
	d := base << attempt
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(jitter*float64(d/2))
}
