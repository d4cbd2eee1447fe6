// Package fault is the deterministic fault-injection and
// recovery-measurement subsystem: it shifts the *environment* of a run the
// way internal/distgen shifts its data — with seeded, parameterized,
// reproducible perturbations — so "graceful degradation" becomes a
// measured property instead of an asserted one.
//
// A Plan is a schedule of fault windows on the run's clock: per-operation
// latency inflation (SlowOps), injected operation errors (ErrorOps), a
// crash-restart that wipes learned state and forces retraining
// (CrashRestart), and wire-frame drop/delay on the network driver
// (WireDrop, WireDelay).
// An Injector drives the plan: every decision is a pure function of the
// plan seed and a fault-site sequence number, so identical (plan, seed)
// runs make identical decisions — on the virtual clock the full result is
// byte-identical; on the wall clock the decision stream and fault counts
// still are.
//
// The subsystem plugs in at two layers without touching engine code:
//
//   - Wrap turns any core.SUT into a fault-carrying SUT (the runner's
//     WrapSUT hook hands it the run's virtual clock);
//   - NewConn wraps a net.Conn with wire-frame faults (the netdriver's
//     Options.WrapConn hook), against which the client's capped
//     exponential backoff makes degradation survivable and measurable.
//
// Recovery measurement lives in internal/metrics (Snapshot.Recovery):
// time to return to the pre-fault SLA band, availability, and error
// budget burn — the Fig 1e robustness view.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault types a Window can schedule.
type Kind int

// Fault kinds. SlowOps, ErrorOps, and CrashRestart act at the SUT
// middleware (Wrap); WireDrop and WireDelay act at the conn wrapper
// (NewConn).
const (
	// SlowOps multiplies the work of affected operations by Factor,
	// inflating their service time (a slow device, a noisy neighbour).
	SlowOps Kind = iota
	// ErrorOps fails affected operations outright: they complete as
	// failures (OpResult.Failed) without executing.
	ErrorOps
	// CrashRestart fires once at StartNs: the SUT loses its learned
	// in-memory state and is forced to retrain (core.Trainable.Train).
	CrashRestart
	// WireDrop swallows affected wire writes — the frame is lost and the
	// peer never sees it (lost-request semantics).
	WireDrop
	// WireDelay sleeps DelayNs before affected wire writes.
	WireDelay
	numKinds
)

// kindNames is the spec vocabulary, indexed by Kind.
var kindNames = [numKinds]string{"slow", "error", "crash", "drop", "delay"}

// String returns the spec name of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// opKind reports whether the kind acts at the SUT middleware layer.
func (k Kind) opKind() bool { return k == SlowOps || k == ErrorOps || k == CrashRestart }

// wireKind reports whether the kind acts at the conn-wrapper layer.
func (k Kind) wireKind() bool { return k == WireDrop || k == WireDelay }

// Default parameters for unspecified window knobs.
const (
	defaultFactor  = 4.0
	defaultDelayNs = int64(time.Millisecond)
)

// Window is one scheduled fault: it is live on [StartNs, EndNs) of the
// driving clock (CrashRestart is a point event at StartNs; EndNs is
// ignored).
type Window struct {
	Kind Kind
	// StartNs/EndNs bound the window in nanoseconds on the injector's
	// clock — virtual time under the deterministic runner, wall time
	// since injector creation elsewhere.
	StartNs, EndNs int64
	// Rate is the fraction of fault sites (ops, wire writes) affected
	// while the window is live, in (0, 1]. 0 means 1 (all).
	Rate float64
	// Factor is the SlowOps work multiplier (> 1). 0 means 4.
	Factor float64
	// DelayNs is the WireDelay per-write delay. 0 means 1ms.
	DelayNs int64
}

// covers reports whether the window is live at time t.
func (w Window) covers(t int64) bool { return t >= w.StartNs && t < w.EndNs }

// rate returns the effective affect fraction.
func (w Window) rate() float64 {
	if w.Rate <= 0 || w.Rate > 1 {
		return 1
	}
	return w.Rate
}

// factor returns the effective slow multiplier.
func (w Window) factor() float64 {
	if w.Factor <= 1 {
		return defaultFactor
	}
	return w.Factor
}

// delayNs returns the effective wire delay.
func (w Window) delayNs() int64 {
	if w.DelayNs <= 0 {
		return defaultDelayNs
	}
	return w.DelayNs
}

// Plan is a seeded schedule of fault windows. The zero value (no windows)
// is the all-zero plan: an injector driving it never perturbs anything,
// and a run under it is byte-identical to a run with no injector at all.
type Plan struct {
	Seed    uint64
	Windows []Window
}

// Empty reports whether the plan schedules no faults.
func (p Plan) Empty() bool { return len(p.Windows) == 0 }

// Validate checks the plan is runnable.
func (p Plan) Validate() error {
	for i, w := range p.Windows {
		if w.Kind < 0 || w.Kind >= numKinds {
			return fmt.Errorf("fault: window %d: unknown kind %d", i, int(w.Kind))
		}
		if w.StartNs < 0 {
			return fmt.Errorf("fault: window %d (%s): negative start", i, w.Kind)
		}
		if w.Kind != CrashRestart && w.EndNs <= w.StartNs {
			return fmt.Errorf("fault: window %d (%s): end %d not after start %d", i, w.Kind, w.EndNs, w.StartNs)
		}
		if w.Rate < 0 || w.Rate > 1 {
			return fmt.Errorf("fault: window %d (%s): rate %g outside [0,1]", i, w.Kind, w.Rate)
		}
	}
	return nil
}

// CheckInProcess returns an error naming the first window whose kind only
// a wire connection consults (drop, delay): a run with no connection under
// it would accept such a window and never apply it.
func (p Plan) CheckInProcess() error {
	for _, w := range p.Windows {
		if w.Kind.wireKind() {
			return fmt.Errorf("fault: %s windows act only on a wire connection to a remote SUT, and this run is in process", w.Kind)
		}
	}
	return nil
}

// OpFaultSpan returns the [start, end) hull of the plan's op-affecting
// windows — the default recovery-measurement window when the caller has
// no more specific fault of interest. CrashRestart contributes its start
// instant. ok is false when the plan has no op-affecting windows.
func (p Plan) OpFaultSpan() (startNs, endNs int64, ok bool) {
	for _, w := range p.Windows {
		if !w.Kind.opKind() {
			continue
		}
		end := w.EndNs
		if w.Kind == CrashRestart {
			end = w.StartNs
		}
		if !ok || w.StartNs < startNs {
			startNs = w.StartNs
		}
		if !ok || end > endNs {
			endNs = end
		}
		ok = true
	}
	return startNs, endNs, ok
}

// String renders the plan as a canonical spec string (parsable by
// ParseSpec, windows in schedule order).
func (p Plan) String() string {
	ws := append([]Window(nil), p.Windows...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].StartNs < ws[j].StartNs })
	var parts []string
	for _, w := range ws {
		s := w.Kind.String() + "@" + formatNs(w.StartNs)
		if w.Kind != CrashRestart {
			s += "-" + formatNs(w.EndNs)
		}
		var params []string
		if w.Rate > 0 && w.Rate < 1 {
			params = append(params, "rate="+strconv.FormatFloat(w.Rate, 'g', -1, 64))
		}
		if w.Kind == SlowOps && w.Factor > 1 {
			params = append(params, "factor="+strconv.FormatFloat(w.Factor, 'g', -1, 64))
		}
		if w.Kind == WireDelay && w.DelayNs > 0 {
			params = append(params, "delay="+formatNs(w.DelayNs))
		}
		if len(params) > 0 {
			s += ":" + strings.Join(params, ",")
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// formatNs renders nanoseconds as a time.ParseDuration-compatible string.
func formatNs(ns int64) string { return time.Duration(ns).String() }

// ParseSpec parses a fault plan from its compact CLI form:
//
//	spec    := window (';' window)*
//	window  := kind '@' start [ '-' end ] [ ':' param (',' param)* ]
//	kind    := slow | error | crash | drop | delay
//	param   := rate=<0..1> | factor=<float> | delay=<duration>
//
// start, end, and delay are Go durations ("10ms", "1.5s", "0"); windows
// are [start, end) on the driving clock. crash takes no end (a point
// event). Example:
//
//	slow@10ms-30ms:rate=0.5,factor=8;crash@50ms;error@70ms-80ms
func ParseSpec(spec string, seed uint64) (Plan, error) {
	plan := Plan{Seed: seed}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return plan, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := parseWindow(part)
		if err != nil {
			return Plan{}, err
		}
		plan.Windows = append(plan.Windows, w)
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// parseWindow parses one kind@start-end:params clause.
func parseWindow(s string) (Window, error) {
	kindStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Window{}, fmt.Errorf("fault: window %q: missing '@' (want kind@start-end)", s)
	}
	var w Window
	kind := -1
	for k, name := range kindNames {
		if kindStr == name {
			kind = k
			break
		}
	}
	if kind < 0 {
		return Window{}, fmt.Errorf("fault: window %q: unknown kind %q (have %s)",
			s, kindStr, strings.Join(kindNames[:], ","))
	}
	w.Kind = Kind(kind)

	span := rest
	var params string
	if i := strings.Index(rest, ":"); i >= 0 {
		span, params = rest[:i], rest[i+1:]
	}
	startStr, endStr, hasEnd := strings.Cut(span, "-")
	start, err := parseDur(startStr)
	if err != nil {
		return Window{}, fmt.Errorf("fault: window %q: bad start: %v", s, err)
	}
	w.StartNs = start
	if w.Kind == CrashRestart {
		if hasEnd {
			return Window{}, fmt.Errorf("fault: window %q: crash is a point event, no end", s)
		}
	} else {
		if !hasEnd {
			return Window{}, fmt.Errorf("fault: window %q: missing end (want %s@start-end)", s, kindStr)
		}
		end, err := parseDur(endStr)
		if err != nil {
			return Window{}, fmt.Errorf("fault: window %q: bad end: %v", s, err)
		}
		w.EndNs = end
	}

	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Window{}, fmt.Errorf("fault: window %q: bad param %q (want key=value)", s, kv)
			}
			switch key {
			case "rate":
				r, err := strconv.ParseFloat(val, 64)
				if err != nil || r < 0 || r > 1 {
					return Window{}, fmt.Errorf("fault: window %q: rate %q outside [0,1]", s, val)
				}
				w.Rate = r
			case "factor":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil || f <= 1 {
					return Window{}, fmt.Errorf("fault: window %q: factor %q must be > 1", s, val)
				}
				w.Factor = f
			case "delay":
				d, err := parseDur(val)
				if err != nil || d <= 0 {
					return Window{}, fmt.Errorf("fault: window %q: bad delay %q", s, val)
				}
				w.DelayNs = d
			default:
				return Window{}, fmt.Errorf("fault: window %q: unknown param %q (have rate, factor, delay)", s, key)
			}
		}
	}
	return w, nil
}

// parseDur parses a Go duration into nanoseconds, accepting a bare "0".
func parseDur(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Nanoseconds(), nil
}
