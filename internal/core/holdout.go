package core

import (
	"fmt"
	"sync"
)

// HoldoutRegistry implements the paper's out-of-sample evaluation idea
// (§V-A): hold-out workload and data distributions "that the system is
// only allowed to execute once". Scenario factories are registered sealed
// — identified by name, their contents never enumerated — and each SUT
// name gets exactly one run per hold-out. A second attempt returns an
// error, mirroring the benchmark-as-a-service gatekeeping the paper
// proposes.
type HoldoutRegistry struct {
	mu        sync.Mutex
	factories map[string]func() Scenario
	used      map[string]bool // "scenario|sut" -> consumed
}

// NewHoldoutRegistry returns an empty registry.
func NewHoldoutRegistry() *HoldoutRegistry {
	return &HoldoutRegistry{
		factories: make(map[string]func() Scenario),
		used:      make(map[string]bool),
	}
}

// Register seals a hold-out scenario factory under a name. Registering the
// same name twice is a configuration bug and returns an error.
func (h *HoldoutRegistry) Register(name string, factory func() Scenario) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.factories[name]; dup {
		return fmt.Errorf("core: hold-out %q already registered", name)
	}
	h.factories[name] = factory
	return nil
}

// Names lists registered hold-outs (names only — contents stay sealed).
func (h *HoldoutRegistry) Names() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.factories))
	for n := range h.factories {
		out = append(out, n)
	}
	return out
}

// RunOnce executes the named hold-out against the SUT built by factory,
// consuming the SUT's single attempt. Subsequent calls for the same
// (hold-out, SUT-name) pair fail even if the first run errored — a spent
// attempt is spent, exactly like a benchmark-as-a-service submission.
//
// RunOnce is safe for concurrent use (the service's queue workers call it
// from several goroutines): the attempt is claimed atomically under the
// registry mutex, so of N concurrent submissions for the same pair
// exactly one runs. The SUT and scenario factories execute outside the
// lock — they may be slow and may themselves consult the registry.
func (h *HoldoutRegistry) RunOnce(r *Runner, name string, sutFactory func() SUT) (*Result, error) {
	sut := sutFactory()
	key := name + "|" + sut.Name()

	h.mu.Lock()
	f, ok := h.factories[name]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: unknown hold-out %q", name)
	}
	if h.used[key] {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: hold-out %q already consumed by %q", name, sut.Name())
	}
	h.used[key] = true
	h.mu.Unlock()

	return r.Run(f(), sut)
}
