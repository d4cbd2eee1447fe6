package report

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/metrics"
)

// LatencySummary is the JSON-friendly digest of a latency histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"meanNs"`
	MinNs  int64   `json:"minNs"`
	P50Ns  int64   `json:"p50Ns"`
	P90Ns  int64   `json:"p90Ns"`
	P99Ns  int64   `json:"p99Ns"`
	MaxNs  int64   `json:"maxNs"`
}

// SummarizeLatency digests a histogram into a LatencySummary.
func SummarizeLatency(h *metrics.Histogram) LatencySummary {
	if h == nil {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  h.Count(),
		MeanNs: h.Mean(),
		MinNs:  h.Min(),
		P50Ns:  h.Quantile(0.5),
		P90Ns:  h.Quantile(0.9),
		P99Ns:  h.Quantile(0.99),
		MaxNs:  h.Max(),
	}
}

// PhaseView is the JSON form of one phase's results.
type PhaseView struct {
	Name      string `json:"name"`
	StartNs   int64  `json:"startNs"`
	EndNs     int64  `json:"endNs"`
	Completed int64  `json:"completed"`
	// Failed counts error completions (injected faults); omitted for
	// fault-free runs so their encoding is unchanged.
	Failed      int64          `json:"failed,omitempty"`
	Throughput  float64        `json:"throughput"`
	RetrainWork int64          `json:"retrainWork"`
	Latency     LatencySummary `json:"latency"`
}

// ResultView is the JSON form of a full core.Result: every Figure 1
// metric family digested into plain fields. The encoding is a pure
// function of the result, so identical runs (same scenario, same seed)
// marshal to byte-identical JSON — the property the benchmark service
// relies on for verifiable resubmissions.
type ResultView struct {
	Scenario string `json:"scenario"`
	SUT      string `json:"sut"`

	Completed int64 `json:"completed"`
	// Failed counts error completions; omitted for fault-free runs so
	// their encoding — and every pre-fault golden — is unchanged.
	Failed     int64   `json:"failed,omitempty"`
	DurationNs int64   `json:"durationNs"`
	Throughput float64 `json:"throughput"`

	Latency LatencySummary `json:"latency"`
	Phases  []PhaseView    `json:"phases"`

	// Figure 1b/1c digests.
	SLANs         int64   `json:"slaNs"`
	ViolationRate float64 `json:"violationRate"`
	AreaVsIdeal   float64 `json:"areaVsIdeal"`
	// AdjustmentNs holds, per phase change, the adjustment-speed metric
	// (virtual ns the system spent over SLA right after the change).
	AdjustmentNs []int64 `json:"adjustmentNs,omitempty"`

	// Lesson 3: training accounting.
	OfflineTrainWork int64 `json:"offlineTrainWork"`
	OnlineTrainWork  int64 `json:"onlineTrainWork"`
	Models           int   `json:"models"`
	MaxModels        int   `json:"maxModels"`
	Retrains         int   `json:"retrains"`

	// Storage summarizes buffer-pool work for disk-backed SUTs; omitted
	// for in-memory SUTs so pre-storage goldens are unchanged.
	Storage *StorageView `json:"storage,omitempty"`

	// Sessions digests per-session SLA accounting for interactive
	// workloads; omitted for non-session runs so earlier goldens are
	// unchanged.
	Sessions *SessionView `json:"sessions,omitempty"`
}

// SessionView is the JSON form of the per-session SLA digest.
type SessionView struct {
	BudgetNs      int64   `json:"budgetNs"`
	Sessions      int64   `json:"sessions"`
	MetBudget     int64   `json:"metBudget"`
	MetRate       float64 `json:"metRate"`
	LateOps       int64   `json:"lateOps,omitempty"`
	MakespanP50Ns int64   `json:"makespanP50Ns"`
	MakespanP99Ns int64   `json:"makespanP99Ns"`
	MakespanMaxNs int64   `json:"makespanMaxNs"`
}

// StorageView is the JSON form of a disk-backed SUT's pool summary.
type StorageView struct {
	PoolPages       int     `json:"poolPages"`
	Policy          string  `json:"policy"`
	Hits            uint64  `json:"hits"`
	Misses          uint64  `json:"misses"`
	HitRatio        float64 `json:"hitRatio"`
	Evictions       uint64  `json:"evictions"`
	DirtyWritebacks uint64  `json:"dirtyWritebacks"`
	PagesRead       uint64  `json:"pagesRead"`
	PagesWritten    uint64  `json:"pagesWritten"`
	Fsyncs          uint64  `json:"fsyncs"`
}

// NewResultView digests a core.Result — whichever executor produced it —
// into its JSON view.
func NewResultView(r *core.Result) ResultView {
	v := ResultView{
		Scenario:         r.Scenario,
		SUT:              r.SUT,
		Completed:        r.Completed,
		Failed:           r.Failed,
		DurationNs:       r.DurationNs,
		Throughput:       r.Throughput(),
		Latency:          SummarizeLatency(r.Latency),
		SLANs:            r.SLANs,
		ViolationRate:    r.Bands.ViolationRate(),
		AdjustmentNs:     r.AdjustmentNs,
		AreaVsIdeal:      r.Cumulative.AreaVsIdeal(),
		OfflineTrainWork: r.OfflineTrainWork,
		OnlineTrainWork:  r.OnlineTrainWork,
		Models:           r.Models,
		MaxModels:        r.MaxModels,
		Retrains:         r.Retrains,
	}
	if s := r.Sessions; s != nil {
		v.Sessions = &SessionView{
			BudgetNs:      s.BudgetNs,
			Sessions:      s.Sessions,
			MetBudget:     s.MetBudget,
			MetRate:       s.MetRate(),
			LateOps:       s.LateOps,
			MakespanP50Ns: s.Makespan.Quantile(0.5),
			MakespanP99Ns: s.Makespan.Quantile(0.99),
			MakespanMaxNs: s.Makespan.Max(),
		}
	}
	for _, p := range r.Phases {
		v.Phases = append(v.Phases, PhaseView{
			Name:        p.Name,
			StartNs:     p.StartNs,
			EndNs:       p.EndNs,
			Completed:   p.Completed,
			Failed:      p.Failed,
			Throughput:  p.Throughput(),
			RetrainWork: p.RetrainWork,
			Latency:     SummarizeLatency(p.Latency),
		})
	}
	if r.Storage != nil {
		c := r.Storage.Counters
		v.Storage = &StorageView{
			PoolPages:       r.Storage.Knobs.Pages,
			Policy:          r.Storage.Knobs.Policy,
			Hits:            c.Hits,
			Misses:          c.Misses,
			HitRatio:        c.HitRatio(),
			Evictions:       c.Evictions,
			DirtyWritebacks: c.DirtyWritebacks,
			PagesRead:       c.PagesRead,
			PagesWritten:    c.PagesWritten,
			Fsyncs:          c.Fsyncs,
		}
	}
	return v
}

// MarshalResult renders the result view as indented JSON with a trailing
// newline. Identical results produce byte-identical output.
func MarshalResult(r *core.Result) ([]byte, error) {
	data, err := json.MarshalIndent(NewResultView(r), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
