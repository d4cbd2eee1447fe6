// Package lsbench is LSBench: a benchmark for learned data-management
// systems, implementing the design proposed in "Towards a Benchmark for
// Learned Systems" (Bindschaedler, Kipf, Kraska, Marcus, Minhas — ICDE
// 2021).
//
// The package is the public facade over the implementation in internal/:
// it exposes scenario construction, the standard systems under test
// (traditional B+ tree and hash indexes, RMI and ALEX-style learned
// indexes, a knob-tunable LSM KV store, histogram- and learned-estimator
// query optimizers), the virtual-time benchmark runner, the paper's four
// metric families (specialization box statistics, cumulative-completion
// area scores, SLA latency bands with adjustment speed, and
// training-cost/TCO curves), and the ready-made experiments that
// regenerate every panel of the paper's Figure 1.
//
// # Quick start
//
//	scenario := lsbench.Scenario{
//	    Name:        "quickstart",
//	    Seed:        42,
//	    InitialData: lsbench.NewZipfKeys(1, 1.1, 1<<22),
//	    InitialSize: 100_000,
//	    TrainBefore: true,
//	    Phases: []lsbench.Phase{{
//	        Name: "steady",
//	        Ops:  200_000,
//	        Workload: lsbench.WorkloadSpec{
//	            Mix:    lsbench.ReadHeavy,
//	            Access: lsbench.Static{G: lsbench.NewZipfKeys(2, 1.1, 1<<22)},
//	        },
//	    }},
//	}
//	result, err := lsbench.NewRunner().Run(scenario, lsbench.NewRMISUT())
//
// See examples/ for complete programs, cmd/figures for the full
// figure-regeneration pipeline, and `lsbench serve sut|worker`
// (cmd/lsbench) for the TCP SUT server and the benchmark service.
package lsbench

import (
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Re-exported scenario model. These are type aliases, so values flow
// freely between the facade and the internal packages.
type (
	// Scenario is a full benchmark configuration (§V-B).
	Scenario = core.Scenario
	// Phase is one workload segment of a scenario.
	Phase = core.Phase
	// Runner executes scenarios on the deterministic virtual clock.
	Runner = core.Runner
	// Result carries every Figure 1 metric family for one run — the one
	// result type of the runner under either clock, for KV and query SUTs.
	Result = core.Result
	// PhaseResult is the per-phase breakdown.
	PhaseResult = core.PhaseResult
	// SUT is a key-value system under test.
	SUT = core.SUT
	// Trainable marks SUTs with an explicit training step (Lesson 3).
	Trainable = core.Trainable
	// OpResult reports one executed operation.
	OpResult = core.OpResult
	// TrainReport accounts a training phase.
	TrainReport = core.TrainReport
	// HoldoutRegistry provides run-once out-of-sample evaluation (§V-A).
	HoldoutRegistry = core.HoldoutRegistry

	// WorkloadSpec generates a phase's operation stream.
	WorkloadSpec = workload.Spec
	// Mix fixes operation-type proportions.
	Mix = workload.Mix
	// Op is one generated operation.
	Op = workload.Op
	// Arrival paces open-loop workloads (Poisson, diurnal, bursts).
	Arrival = workload.Arrival

	// Generator fills a caller buffer with keys from a fixed distribution.
	Generator = distgen.Generator
	// Drift does the same from a distribution evolving over progress.
	Drift = distgen.Drift
	// Static adapts a Generator into a non-evolving Drift.
	Static = distgen.Static
)

// Standard operation mixes (YCSB-inspired).
var (
	ReadHeavy  = workload.ReadHeavy
	Balanced   = workload.Balanced
	WriteHeavy = workload.WriteHeavy
	ScanHeavy  = workload.ScanHeavy
)

// NewRunner returns a benchmark runner with the default calibrated cost
// model.
func NewRunner() *Runner { return core.NewRunner() }

// NewHoldoutRegistry returns an empty hold-out registry.
func NewHoldoutRegistry() *HoldoutRegistry { return core.NewHoldoutRegistry() }

// Standard systems under test.
var (
	// NewBTreeSUT builds the traditional B+ tree baseline.
	NewBTreeSUT = core.NewBTreeSUT
	// NewHashSUT builds the extendible-hashing baseline.
	NewHashSUT = core.NewHashSUT
	// NewRMISUT builds the static learned index (two-stage RMI).
	NewRMISUT = core.NewRMISUT
	// NewALEXSUT builds the adaptive learned index.
	NewALEXSUT = core.NewALEXSUT
	// NewKVSUTDefault builds the log-structured KV store, untuned.
	NewKVSUTDefault = core.NewKVSUTDefault
	// StandardSUTs returns the full comparison lineup.
	StandardSUTs = core.StandardSUTs
)

// Data distribution generators (see internal/distgen for parameters).
var (
	NewUniform       = distgen.NewUniform
	NewNormal        = distgen.NewNormal
	NewLognormal     = distgen.NewLognormal
	NewZipfKeys      = distgen.NewZipfKeys
	NewClustered     = distgen.NewClustered
	NewSegmented     = distgen.NewSegmented
	NewSequential    = distgen.NewSequential
	NewEmail         = distgen.NewEmail
	NewMixture       = distgen.NewMixture
	NewBlend         = distgen.NewBlend
	NewAbrupt        = distgen.NewAbrupt
	NewMovingHotspot = distgen.NewMovingHotspot
	NewGrowingSkew   = distgen.NewGrowingSkew
	NewSchedule      = distgen.NewSchedule
)

// Arrival processes.
var (
	NewPoisson = workload.NewPoisson
	NewDiurnal = workload.NewDiurnal
	NewBursty  = workload.NewBursty
)

// Fault injection and recovery measurement (the robustness view, Fig 1e).
// A FaultPlan is a seeded schedule of fault windows; wrapping a SUT with
// an injector driven by the run's clock makes the same seed reproduce the
// same faults byte for byte.
type (
	// FaultPlan is a deterministic schedule of fault windows.
	FaultPlan = fault.Plan
	// FaultWindow is one fault interval (or instant, for crashes).
	FaultWindow = fault.Window
	// FaultInjector turns a plan into per-operation decisions.
	FaultInjector = fault.Injector
	// FaultReport is the injector's ledger of what actually fired.
	FaultReport = fault.Report
	// RecoveryStats is the post-fault recovery view of a run's snapshot.
	RecoveryStats = metrics.RecoveryStats
)

// Fault kinds for hand-built FaultWindow values (ParseFaultSpec covers
// the common cases).
const (
	FaultSlowOps      = fault.SlowOps
	FaultErrorOps     = fault.ErrorOps
	FaultCrashRestart = fault.CrashRestart
	FaultWireDrop     = fault.WireDrop
	FaultWireDelay    = fault.WireDelay
)

var (
	// ParseFaultSpec parses "kind@start-end:param,..." schedules, e.g.
	// "slow@10ms-20ms:factor=8;crash@35ms;error@55ms-65ms".
	ParseFaultSpec = fault.ParseSpec
	// NewFaultInjector builds an injector for a plan (nil clock = wall).
	NewFaultInjector = fault.NewInjector
	// WithFaults wraps a SUT so the injector's decisions apply to every
	// operation. Typically installed via Runner.WrapSUT so the injector
	// shares the run's virtual clock.
	WithFaults = fault.Wrap
)

// KeyDomain is the key universe upper bound used by bounded generators.
const KeyDomain = distgen.KeyDomain
