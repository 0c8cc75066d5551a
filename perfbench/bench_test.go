package main

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/market"
)

// smallConfig is a federation small enough to solve quickly under -race,
// with the approximate-model settings the benchmark uses.
func smallConfig() core.Config {
	return core.Config{
		Federation: cloud.Federation{SCs: []cloud.SC{
			{Name: "a", VMs: 5, ArrivalRate: 3, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 5, ArrivalRate: 4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		}, FederationPrice: 0.4},
		Model:     core.ModelApprox,
		Gamma:     market.UF0,
		MaxShares: []int{2, 2},
		Approx:    approx.Config{Passes: 1, Prune: 1e-4, PoolCap: 4},
	}
}

func frameworkStats(t *testing.T, fw *core.Framework) market.CacheStats {
	t.Helper()
	rep, ok := fw.Evaluator().(market.CacheStatsReporter)
	if !ok {
		t.Fatal("framework evaluator does not report cache stats")
	}
	return rep.Stats()
}

// TestTracedStackMatchesFramework pins that the traced stack is the stack
// core.New builds: on the serial schedule (GOMAXPROCS 1, so both games
// solve vectors in the same order) the outcome and the memo's counters,
// whole-vector versus per-target solves included, are identical.
func TestTracedStackMatchesFramework(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := smallConfig()
	fw, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Equilibrium(nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st := newTracedStack(cfg, tr)
	got, err := st.equilibrium(context.Background(), cfg.Federation.FederationPrice, nil, market.AlphaUtilitarian, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced outcome %+v\nframework outcome %+v", got, want)
	}
	gs, ws := st.stats(), frameworkStats(t, fw)
	if gs != ws {
		t.Errorf("traced cache stats %+v, framework %+v", gs, ws)
	}
	if gs.AllSolves == 0 || gs.TargetSolves != 0 {
		t.Errorf("cache stats %+v: want whole-vector solves only", gs)
	}
	if n := len(durations(tr.snapshot(), "market.eval")); n != int(gs.Hits+gs.Misses) {
		t.Errorf("%d market.eval spans for %d memo lookups", n, gs.Hits+gs.Misses)
	}
	if len(st.solve.take()) == 0 || len(st.participation.take()) == 0 {
		t.Error("solve or participation boundary saw no calls")
	}
}

// TestTracedStackParallel runs both stacks on the default worker pool,
// where the game's Jacobi rounds evaluate concurrently: shares and the
// solve split still agree.
func TestTracedStackParallel(t *testing.T) {
	cfg := smallConfig()
	fw, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Equilibrium(nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	st := newTracedStack(cfg, newTracer())
	got, err := st.equilibrium(context.Background(), cfg.Federation.FederationPrice, nil, market.AlphaUtilitarian, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shares, want.Shares) || got.Converged != want.Converged {
		t.Errorf("traced shares %v converged %v, framework %v %v", got.Shares, got.Converged, want.Shares, want.Converged)
	}
	gs, ws := st.stats(), frameworkStats(t, fw)
	if gs.AllSolves != ws.AllSolves || gs.TargetSolves != 0 || ws.TargetSolves != 0 {
		t.Errorf("traced cache stats %+v, framework %+v", gs, ws)
	}
}

// plainEval hides every optional interface of the evaluator it wraps.
type plainEval struct{ market.Evaluator }

// TestPlainWrapperSwitchesMemoToTargetSolves is the hazard the timing
// wrappers avoid: a wrapper without EvaluateAll turns the memo's
// whole-vector solves into per-target ones.
func TestPlainWrapperSwitchesMemoToTargetSolves(t *testing.T) {
	cfg := smallConfig()
	ev, err := market.NewEvaluator(market.KindApprox, cfg.Federation, market.EvaluatorOptions{Approx: cfg.Approx})
	if err != nil {
		t.Fatal(err)
	}
	memo := market.Memoize(plainEval{ev})
	if _, err := memo.Evaluate([]int{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if st := memo.(market.CacheStatsReporter).Stats(); st.TargetSolves != 1 || st.AllSolves != 0 {
		t.Errorf("plain wrapper: stats %+v, want one per-target solve", st)
	}
	memo = market.Memoize(wrap(ev, &boundary{}))
	if _, err := memo.Evaluate([]int{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if st := memo.(market.CacheStatsReporter).Stats(); st.AllSolves != 1 || st.TargetSolves != 0 {
		t.Errorf("timing wrapper: stats %+v, want one whole-vector solve", st)
	}
}

// TestWrapKeepsOptionalInterfaces checks each combination of the optional
// interfaces survives wrapping, and that none is added.
func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	fed := smallConfig().Federation
	all, err := market.NewEvaluator(market.KindFluid, fed, market.EvaluatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []market.Evaluator{
		plainEval{all}, all, market.Memoize(plainEval{all}), market.Memoize(all),
	} {
		w := wrap(ev, &boundary{})
		_, inAll := ev.(market.AllEvaluator)
		_, inRep := ev.(market.CacheStatsReporter)
		_, outAll := w.(market.AllEvaluator)
		_, outRep := w.(market.CacheStatsReporter)
		if inAll != outAll || inRep != outRep {
			t.Errorf("%T: AllEvaluator %v→%v, CacheStatsReporter %v→%v", ev, inAll, outAll, inRep, outRep)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Layer: "market", Start: 10, End: 60},
		// Two concurrent children overlapping on [30, 40).
		{ID: 3, Parent: 2, Op: 1, Layer: "approx", Start: 20, End: 40},
		{ID: 4, Parent: 2, Op: 1, Layer: "approx", Start: 30, End: 50},
		// A child sticking out of its parent only counts inside it.
		{ID: 5, Parent: 1, Op: 1, Layer: "core", Start: 90, End: 120},
	}
	self, ops := selfTimes(spans)
	want := map[string]float64{"bench": 40e-9, "market": 20e-9, "approx": 40e-9, "core": 30e-9}
	if ops != 1 {
		t.Errorf("ops = %d, want 1", ops)
	}
	for l, w := range want {
		if math.Abs(self[l]-w) > 1e-15 {
			t.Errorf("self[%s] = %g, want %g", l, self[l], w)
		}
	}
}

// TestCPUShares profiles a busy loop and decodes the profile.
func TestCPUShares(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for k, v := range shares {
		if k != "samples" {
			total += v
		}
	}
	if shares["samples"] <= 0 || total > 100+1e-9 {
		t.Errorf("shares %v (x=%v)", shares, x)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"scshare/internal/sparse.(*CSR).MulVecTTo":           "scshare/internal/sparse",
		"scshare/internal/approx.(*Solver).SolveAll.func1":   "scshare/internal/approx",
		"net/http.(*conn).serve":                             "net/http",
		"runtime.mallocgc":                                   "runtime",
		"scshare/internal/market.memoShard.do[go.shape.int]": "scshare/internal/market",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCheckSweepDetectsMismatch(t *testing.T) {
	pts := []core.SweepPoint{{
		Ratio: 0.1, Shares: []int{1, 2}, Converged: true,
		Welfare: []float64{1, math.Inf(-1)}, Efficiency: []float64{0.5, 0},
	}}
	want := toGolden(pts)
	if err := checkSweep(pts, want, 1e-6); err != nil {
		t.Fatalf("identical points: %v", err)
	}
	pts[0].Efficiency = []float64{0.5 + 1e-9, 0}
	if err := checkSweep(pts, want, 1e-6); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	pts[0].Efficiency = []float64{0.51, 0}
	if checkSweep(pts, want, 1e-6) == nil {
		t.Error("efficiency off by 0.01 passed")
	}
	pts[0].Efficiency, pts[0].Shares = []float64{0.5, 0}, []int{2, 2}
	if checkSweep(pts, want, 1e-6) == nil {
		t.Error("changed shares passed")
	}
}

func TestCompareAdvice(t *testing.T) {
	u := 0.25
	var got adviseReply
	got.Rounds, got.Evaluations, got.Converged = 2, 9, true
	got.SCs = append(got.SCs, scReply{Name: "a", Share: 1, Join: true, CostPerSec: 3, Utility: &u})
	want := &core.Advice{Rounds: 2, Evaluations: 9, Converged: true,
		SCs: []core.SCAdvice{{Name: "a", Share: 1, Join: true, CostPerSec: 3, Utility: 0.25}}}
	if err := compareAdvice(got, want); err != nil {
		t.Fatalf("equal advice: %v", err)
	}
	want.SCs[0].CostPerSec = 3.001
	if compareAdvice(got, want) == nil {
		t.Error("cost off by 1e-3 passed")
	}
	want.SCs[0].CostPerSec, want.SCs[0].Share = 3, 2
	if compareAdvice(got, want) == nil {
		t.Error("different share passed")
	}
}

func TestCheckMetrics(t *testing.T) {
	ok := []cloud.Metrics{{PublicRate: 1, Utilization: 0.5, ForwardProb: 0.1}}
	if err := checkMetrics(ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []cloud.Metrics{
		{Utilization: math.NaN()}, {Utilization: 1.5}, {ForwardProb: 2}, {BorrowRate: -1}, {LendRate: math.Inf(1)},
	} {
		if checkMetrics([]cloud.Metrics{bad}) == nil {
			t.Errorf("%+v passed", bad)
		}
	}
}
