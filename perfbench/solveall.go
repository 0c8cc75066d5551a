package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/markov"
)

// walkK is the federation size of the solveall-walk workload.
const walkK = 6

// walkMinShare and walkMaxShare bound every SC's share along the walk.
// With the walk's alternating moves (see walkStep) the walk stays on the
// 35 vectors of the {2,3}^6 box holding three or four 3s, so every seed's
// run of some forty steps samples nearly the same set of vectors and the
// per-call figures do not hinge on which corner of a large box a seed
// wandered into. Repeat visits are frequent, which the output check uses.
const (
	walkMinShare = 2
	walkMaxShare = 3
)

// walkTol bounds the relative difference between a repeat visit's metrics
// and the first visit's. The handle carries a WarmCache, so a repeat visit
// seeds each level's Gauss–Seidel solve from whichever neighbour was solved
// last; the solves then agree to their tolerance, not bit for bit (the
// observed spread is ~1e-9). Bit-identity is checked on cold handles.
const walkTol = 1e-6

// walkConfig is the K=6 federation of the BENCH_6 large-K curve (10 VMs
// per SC, cycling utilizations) with the approximate-model settings
// experiments.Fig7 passes (one pass, 1e-4 pruning, a 4-VM usage cap), and
// a warm cache and truncation account as core.New gives every solver.
// stats is the leg's own Gauss–Seidel counter: markov.SteadyStateOptions
// documents Stats as unsafe to share across goroutines, and the
// framework's game runs Workers = GOMAXPROCS, so iteration counts are
// collected only here, where one goroutine drives the handle.
func walkConfig(stats *markov.SolveStats) approx.Config {
	utils := []float64{0.7, 0.5, 0.8, 0.6, 0.75, 0.65}
	fed := cloud.Federation{FederationPrice: 0.5}
	for i := 0; i < walkK; i++ {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name: fmt.Sprintf("sc%d", i), VMs: 10, ArrivalRate: 10 * utils[i],
			ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
		})
	}
	return approx.Config{
		Federation: fed, Passes: 1, Prune: 1e-4, PoolCap: 4,
		Warm: approx.NewWarmCache(), PruneStats: &approx.PruneCounter{},
		Solver: markov.SteadyStateOptions{Stats: stats},
	}
}

// walkStart is the share vector every walk starts from, and the vector the
// set-up solves cold.
var walkStart = []int{2, 3, 2, 3, 2, 3}

// walkStep moves one seeded SC by one VM, the way a Tabu best response
// visits a neighbour: up on odd steps and down on even ones, among the SCs
// that can move that way, so the total share stays within one VM of the
// start's and every seed walks through vectors of like cost.
func walkStep(rng *rand.Rand, shares []int, step int) {
	up := step%2 == 1
	var movable []int
	for i, s := range shares {
		if up && s < walkMaxShare || !up && s > walkMinShare {
			movable = append(movable, i)
		}
	}
	i := movable[rng.Intn(len(movable))]
	if up {
		shares[i]++
	} else {
		shares[i]--
	}
}

// checkMetrics reports a metric that is not finite or not within its
// probability or rate bounds.
func checkMetrics(ms []cloud.Metrics) error {
	for i, m := range ms {
		for _, v := range []float64{m.PublicRate, m.BorrowRate, m.LendRate, m.Utilization, m.ForwardProb} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("SC %d: metric %v is not a finite non-negative number", i, v)
			}
		}
		if m.Utilization > 1 || m.ForwardProb > 1 {
			return fmt.Errorf("SC %d: utilization %v or forward probability %v above 1", i, m.Utilization, m.ForwardProb)
		}
	}
	return nil
}

// sameMetrics compares two metric vectors within tol (0 = bit for bit).
func sameMetrics(a, b []cloud.Metrics, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		pairs := [][2]float64{{x.PublicRate, y.PublicRate}, {x.BorrowRate, y.BorrowRate},
			{x.LendRate, y.LendRate}, {x.Utilization, y.Utilization}, {x.ForwardProb, y.ForwardProb}}
		for _, p := range pairs {
			if !near(p[0], p[1], tol) {
				return false
			}
		}
	}
	return true
}

// runSolveAll is the solveall-walk workload: approx.Solver.SolveAll on one
// reused handle, serially, along a seeded walk of one-VM share moves.
func runSolveAll(rc *runCtx) error {
	// Set-up: a fresh handle, warm cache included, and its first (cold)
	// solve of the start vector, which sizes the arenas.
	var s *approx.Solver
	var cfg approx.Config
	stats := &markov.SolveStats{}
	reps := setupReps
	if rc.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		err := rc.timeSetup(func() error {
			*stats = markov.SolveStats{}
			cfg = walkConfig(stats)
			var err error
			if s, err = approx.NewSolver(cfg); err != nil {
				return err
			}
			_, err = s.SolveAll(approx.WithShares(walkStart))
			return err
		})
		if err != nil {
			return err
		}
	}

	first := make(map[string][]cloud.Metrics)
	var solveDurs []float64
	// loop walks from the start vector for d. Both halves of a traced run
	// replay the same walk, so the tracing overhead compares like steps.
	loop := func(d time.Duration, tr *tracer) []float64 {
		rng := rand.New(rand.NewSource(rc.seed))
		shares := append([]int(nil), walkStart...)
		var lat []float64
		for t, step := time.Now(), 1; len(lat) == 0 || time.Since(t) < d; step++ {
			walkStep(rng, shares, step)
			op := int64(rc.attempted + 1)
			root := tr.begin("bench.step", "bench", op, 0)
			sp := tr.begin("approx.solve_all", "approx", op, root.id())
			t0 := time.Now()
			out, err := s.SolveAll(approx.WithShares(shares))
			el := time.Since(t0).Seconds()
			sp.end()
			root.end()
			rc.attempted++
			if err != nil {
				rc.fail("shares %v: %v", shares, err)
				continue
			}
			lat = append(lat, el)
			if err := checkMetrics(out); err != nil {
				rc.fail("shares %v: %v", shares, err)
			}
			k := fmt.Sprint(shares)
			if prev, ok := first[k]; !ok {
				first[k] = out
			} else if !sameMetrics(out, prev, walkTol) {
				rc.fail("shares %v: repeat visit differs from the first beyond %g", shares, walkTol)
			}
		}
		solveDurs = append(solveDurs, lat...)
		return lat
	}

	st0, w0, p0 := *stats, cfg.Warm.Stats(), cfg.PruneStats.Stats()
	if err := rc.phase(func() ([]float64, error) { return loop(rc.phaseLen(), nil), nil }); err != nil {
		return err
	}
	var tr *tracer
	var traced []float64
	if rc.trace {
		tr = newTracer()
		traced = loop(rc.seconds-rc.phaseLen(), tr)
	}
	st1, w1, p1 := *stats, cfg.Warm.Stats(), cfg.PruneStats.Stats()
	n := float64(len(solveDurs))
	rc.samples["distinct_vectors"] = len(first)

	// Determinism: the start vector solved twice on cold handles (no warm
	// cache) must agree bit for bit.
	cold := cfg
	cold.Warm, cold.PruneStats, cold.Solver = nil, nil, markov.SteadyStateOptions{}
	var outs [2][]cloud.Metrics
	for i := range outs {
		h, err := approx.NewSolver(cold)
		if err != nil {
			return err
		}
		if outs[i], err = h.SolveAll(approx.WithShares(walkStart)); err != nil {
			return err
		}
	}
	rc.attempted++
	if !sameMetrics(outs[0], outs[1], 0) {
		rc.fail("shares %v: two cold solves differ", walkStart)
	}

	if !rc.trace {
		return nil
	}
	rc.layer["approx.solve_all.calls"] = 1
	rc.layer["approx.solve_all_p50_ms"] = median(solveDurs) * 1e3
	rc.layer["approx.solve_all_max_ms"] = percentile(solveDurs, 1) * 1e3
	rc.layer["approx.warm.hits"] = float64(w1.Hits-w0.Hits) / n
	rc.layer["approx.warm.misses"] = float64(w1.Misses-w0.Misses) / n
	rc.layer["approx.prune.mass"] = (p1.TotalMass - p0.TotalMass) / n
	rc.layer["approx.prune.joints"] = float64(p1.Joints-p0.Joints) / n
	rc.layer["markov.gs.iterations"] = float64(st1.Iterations-st0.Iterations) / n
	rc.layer["markov.gs.solves"] = float64(st1.Solves-st0.Solves) / n
	return rc.finishTrace("solveall-walk", tr, traced)
}
