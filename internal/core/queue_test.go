package core

import (
	"math"
	"testing"

	"repro/internal/distgen"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// scriptedSUT returns a work sequence fixed in advance, one entry per op in
// issue order, and does nothing else: what the runner makes of it is the
// queue alone.
type scriptedSUT struct {
	work []int64
	n    int
}

func (s *scriptedSUT) Name() string       { return "scripted" }
func (s *scriptedSUT) Load(_, _ []uint64) {}
func (s *scriptedSUT) Do(workload.Op) OpResult {
	s.n++
	return OpResult{Work: s.work[s.n-1]}
}

// TestQueueKnownAnswer checks the virtual clock's single-server FIFO op by op
// against the Lindley recursion done_j = max(arrive_j, done_{j-1}) +
// ServiceTime(work_j), where arrive_j is arrive_{j-1} + gap_j and a zero gap
// is a closed-loop arrival at done_{j-1}. Every completion must land on the
// cumulative curve at exactly its recursion time, at any batch size.
func TestQueueKnownAnswer(t *testing.T) {
	const n = 5000
	rng := stats.NewRNG(29)
	work := make([]int64, n)
	for i := range work {
		work[i] = int64(rng.Intn(200)) // mean service ≈ 0.9 µs at the default prices
	}
	for _, tc := range []struct {
		name    string
		arrival workload.Arrival
	}{
		{"closed", nil},
		{"poisson", workload.NewPoisson(3, 1e6)}, // ρ ≈ 0.9
	} {
		s := Scenario{
			Name:        "queue-" + tc.name,
			Seed:        1,
			InitialKeys: []uint64{1},
			Phases: []Phase{{
				Name:   tc.name,
				Ops:    n,
				Source: workload.FromSpec(workload.Spec{Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<20)}}, tc.arrival),
			}},
		}.Materialize()
		r := NewRunner()

		want := make([]int64, n)
		var arrive, done int64
		idle, waited := 0, 0
		for j, g := range s.Phases[0].Trace.Gaps {
			if g == 0 {
				arrive = done // closed loop: the op arrives as the server frees
			} else {
				arrive += g
			}
			if arrive > done {
				idle++
			} else if arrive < done {
				waited++
			}
			done = max(arrive, done) + r.Cost.ServiceTime(work[j])
			want[j] = done
		}
		if tc.arrival != nil && (idle < n/10 || waited < n/10) {
			t.Fatalf("%s: the queue idled before %d ops and queued %d of %d: not a test of both branches", tc.name, idle, waited, n)
		}

		for _, batch := range []int{1, 7, 64} {
			r.Batch = batch
			res, err := r.Run(s, &scriptedSUT{work: work})
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			res.Cumulative.Points(func(at, count int64) {
				if count != int64(len(got))+1 {
					t.Fatalf("%s batch %d: point %d counts %d", tc.name, batch, len(got), count)
				}
				got = append(got, at)
			})
			if len(got) != n {
				t.Fatalf("%s batch %d: %d points, want %d", tc.name, batch, len(got), n)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s batch %d: op %d completes at %d, want %d", tc.name, batch, j, got[j], want[j])
				}
			}
		}
	}
}

// constWork is an M/D/1 server: every op costs w work units.
func constWork(n int, w int64) *scriptedSUT {
	work := make([]int64, n)
	for i := range work {
		work[i] = w
	}
	return &scriptedSUT{work: work}
}

// queuePhase is one n-op phase over a single-key database with the given
// arrival process (nil: closed loop).
func queuePhase(seed uint64, n int, arrival workload.Arrival) Scenario {
	return Scenario{
		Name:        "md1",
		Seed:        seed,
		InitialKeys: []uint64{1},
		Phases: []Phase{{
			Name:   "p",
			Ops:    n,
			Source: workload.FromSpec(workload.Spec{Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<20)}}, arrival),
		}},
	}
}

// TestQueueMeanSojournPollaczekKhinchine runs M/G/1 queues (Poisson arrivals,
// scripted service times) through the real Runner and Collector and checks
// the phase histogram's exact mean sojourn against Pollaczek–Khinchine,
// W = ρ·E[S²]/(2(1−ρ)·E[S]), plus E[S]. The scripts are constant (M/D/1),
// exponential work (M/M/1 but for the cost model's BaseNs) and two-point
// (M/G/1); E[S] and E[S²] are taken from the scripted service times
// themselves, since ServiceTime adds BaseNs to the work's price. The sample
// mean of n correlated waits has a standard error of order
// W·√(1+c²)/((1−ρ)√(nρ)), c the service's coefficient of variation: the
// heavy-traffic (reflected Brownian motion) 1/((1−ρ)√n), whose variance grows
// with the arrivals' and the service's squared variation (1 and c² here),
// with the light-traffic factor 1/√ρ for the share of ops that wait at all.
// The bound is five of them (sixteen seeds per ρ and script at this n stayed
// within 3.8).
func TestQueueMeanSojournPollaczekKhinchine(t *testing.T) {
	const n = 200_000
	r := NewRunner()
	rng := stats.NewRNG(31)
	exp, twoPoint := make([]int64, n), make([]int64, n)
	for j := range exp {
		exp[j] = int64(rng.ExpFloat64() * 1000)
		twoPoint[j] = 200
		if rng.Float64() < 0.2 {
			twoPoint[j] = 4000
		}
	}
	for _, sc := range []struct {
		name string
		work []int64
	}{
		{"M/D/1", constWork(n, 1000).work},
		{"M/M/1", exp},
		{"M/G/1", twoPoint},
	} {
		var es, es2 float64
		for _, w := range sc.work {
			s := float64(r.Cost.ServiceTime(w))
			es += s / n
			es2 += s * s / n
		}
		c2 := es2/(es*es) - 1
		for i, rho := range []float64{0.3, 0.7, 0.9} {
			s := queuePhase(uint64(i+1), n, workload.NewPoisson(uint64(11+i), rho/es*1e9))
			res, err := r.Run(s, &scriptedSUT{work: sc.work})
			if err != nil {
				t.Fatal(err)
			}
			lat := res.Phases[0].Latency
			if lat.Count() != n {
				t.Fatalf("%s ρ=%.1f: %d sojourns recorded, want %d", sc.name, rho, lat.Count(), n)
			}
			wq := rho * es2 / (2 * (1 - rho) * es)
			bound := 5 * wq * math.Sqrt(1+c2) / ((1 - rho) * math.Sqrt(n*rho))
			if got := lat.Mean(); math.Abs(got-(wq+es)) > bound {
				t.Errorf("%s ρ=%.1f: mean sojourn %.1f ns, Pollaczek–Khinchine %.1f ± %.1f", sc.name, rho, got, wq+es, bound)
			}
		}
	}
}

// TestQueueSLAKnownAnswerMM1 runs exact M/M/1 queues — Poisson arrivals and
// exponential work priced at 1 ns a unit with no fixed cost — through the
// runner and collector at a fixed SLA s, in two phases of n ops with the
// adjustment-speed window the second phase's length. A FIFO M/M/1 sojourn
// is exponential with rate μ−λ, so the violation rate is P(T > s) =
// e^{−(μ−λ)s} and, the tail being memoryless, the adjustment speed over n
// completions is n·E[(T−s)⁺] = n·e^{−(μ−λ)s}/(μ−λ). The same runs give
// Figure 1a's family: the sojourn quantiles (p50 = ln 2/(μ−λ), p99 =
// ln 100/(μ−λ)) and the mean per-interval throughput, which is λ. Sojourns
// are correlated for about 1/(1−ρ)² ops, so the standard error is taken
// from k independent runs, their sample deviation over √k; every phase
// starts on an empty server, whose warm-up bias (a few hundred ops of n at
// ρ = 0.9) is well inside it. The bound is five of them, plus a histogram
// bucket (at most 1/16 of the value) for the quantiles. Over sixteen seed
// sets the violation rate and adjustment speed stayed within 3.1, the
// quantiles within 0.7 beyond their bucket, and the throughput within 3.4
// but once (5.2 at ρ = 0.9); these seeds' worst is 2.2.
func TestQueueSLAKnownAnswerMM1(t *testing.T) {
	const n, k, mean, sla = 20_000, 8, 10_000.0, 30_000 // 1/μ and s in ns
	r := NewRunner()
	r.Cost = sim.CostModel{PerWorkNs: 1}
	r.PostChangeN = n
	for i, rho := range []float64{0.3, 0.7, 0.9} {
		theta := (1 - rho) / mean // μ−λ per ns
		p := math.Exp(-theta * sla)
		var viol, adj, p50, p99, thru []float64
		for run := range k {
			seed := uint64(i*100 + run + 1)
			rng := stats.NewRNG(seed)
			work := make([]int64, 2*n)
			for j := range work {
				work[j] = int64(rng.ExpFloat64() * mean)
			}
			s := queuePhase(seed, n, workload.NewPoisson(seed+500, rho/mean*1e9))
			s.Phases = append(s.Phases, queuePhase(seed, n, workload.NewPoisson(seed+700, rho/mean*1e9)).Phases[0])
			s.SLANs = sla
			res, err := r.Run(s, &scriptedSUT{work: work})
			if err != nil {
				t.Fatal(err)
			}
			viol = append(viol, res.Bands.ViolationRate())
			adj = append(adj, float64(res.AdjustmentNs[0])/n)
			p50 = append(p50, float64(res.Latency.Quantile(0.5)))
			p99 = append(p99, float64(res.Latency.Quantile(0.99)))
			series := res.Bands.ThroughputSeries()
			thru = append(thru, stats.Summarize(series[:len(series)-1]).Mean)
		}
		// The sojourn is exponential with rate μ−λ, so its q-quantile is
		// −ln(1−q)/(μ−λ), read off a histogram whose buckets are at most
		// 1/16 of their value wide; the full intervals complete λ ops a
		// second.
		for _, m := range []struct {
			name  string
			runs  []float64
			want  float64
			slack float64
		}{
			{"violation rate", viol, p, 0},
			{"adjustment speed / n (ns)", adj, p / theta, 0},
			{"sojourn p50 (ns)", p50, math.Ln2 / theta, math.Ln2 / theta / 16},
			{"sojourn p99 (ns)", p99, math.Log(100) / theta, math.Log(100) / theta / 16},
			{"throughput (1/s)", thru, rho / mean * 1e9, 0},
		} {
			sum := stats.Summarize(m.runs)
			if bound := 5*sum.Stddev/math.Sqrt(k) + m.slack; math.Abs(sum.Mean-m.want) > bound {
				t.Errorf("ρ=%.1f: %s %.4g, M/M/1 %.4g ± %.4g", rho, m.name, sum.Mean, m.want, bound)
			}
		}
	}
}

// TestQueueClosedLoopThroughput: with zero gaps every op arrives as the
// previous one completes, so the server never idles and never queues —
// throughput is 1/S exactly and every sojourn is S.
func TestQueueClosedLoopThroughput(t *testing.T) {
	const n, w = 10_000, 1000
	r := NewRunner()
	S := r.Cost.ServiceTime(w)
	res, err := r.Run(queuePhase(1, n, nil), constWork(n, w))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases[0]
	if p.Completed != n || p.EndNs-p.StartNs != n*S {
		t.Fatalf("%d ops in %d ns, want %d in %d (throughput 1/S)", p.Completed, p.EndNs-p.StartNs, n, n*S)
	}
	if p.Latency.Min() != S || p.Latency.Max() != S {
		t.Fatalf("sojourns span [%d, %d] ns, want exactly S = %d", p.Latency.Min(), p.Latency.Max(), S)
	}
}

// TestQueueOverloadKeepsBacklog runs the queue at ρ = 2: the backlog grows
// by S − 1/λ per op, so after n ops the last sojourn is the fluid backlog
// n(S − 1/λ), up to the arrival process's √n/λ noise. Sojourns grow by S/2
// per op, so the largest recorded is the final op's up to the same noise.
// An open-loop gap that truncates to 0 ns and is read as closed loop drops
// the whole backlog; at this rate that happens every few thousand ops.
func TestQueueOverloadKeepsBacklog(t *testing.T) {
	const n, w, rho = 100_000, 1000, 2.0
	r := NewRunner()
	S := float64(r.Cost.ServiceTime(w))
	lambda := rho / S // per ns
	res, err := r.Run(queuePhase(1, n, workload.NewPoisson(5, lambda*1e9)), constWork(n, w))
	if err != nil {
		t.Fatal(err)
	}
	fluid := n * (S - 1/lambda)
	bound := 5*math.Sqrt(n)/lambda + S
	if got := float64(res.Phases[0].Latency.Max()); math.Abs(got-fluid) > bound {
		t.Fatalf("final sojourn %.0f ns, fluid backlog %.0f ± %.0f", got, fluid, bound)
	}
}
