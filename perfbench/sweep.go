package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/experiments"
	"scshare/internal/market"
)

// sweepMaxShare caps each SC's strategy space at 4 VMs, the cap of the
// Fig. 7a benchmarks (bench_test.go) and of the internal/serve bench spec:
// the 5^3-vector box keeps one grid near ten seconds on two cores.
const sweepMaxShare = 4

// sweepVariants is the number of ratio grids a seed chooses from; each has
// its own golden points.
const sweepVariants = 4

// sweepTol is the relative tolerance on welfare and efficiency against the
// golden points. The grid runs on the default worker pool with a shared
// approx warm cache, so which neighbour seeds a level's Gauss–Seidel solve
// depends on scheduling, which moves metrics at the 1e-9 level.
const sweepTol = 1e-6

var sweepAlphas = []float64{market.AlphaUtilitarian, market.AlphaProportional, market.AlphaMaxMin}

// sweepRatios is grid variant v: nine C^G/C^P ratios 0.1 apart, starting
// at 0.1 + 0.025·v.
func sweepRatios(v int) []float64 {
	r := make([]float64, 9)
	for i := range r {
		r[i] = math.Round((0.1+0.025*float64(v)+0.1*float64(i))*1e4) / 1e4
	}
	return r
}

// fig7aConfig is the configuration experiments.Fig7 builds for scenario
// 7a (10 VMs per SC, SLA 0.2, public price 1, one hierarchy pass, 1e-4
// pruning, a 4-VM usage cap) with the share cap above. warm, when set, is
// the framework's approx warm cache, so the benchmark can read its
// counters; core.New would allocate an identical one otherwise.
func fig7aConfig(warm *approx.WarmCache) core.Config {
	sc := experiments.PaperFig7Scenarios()[0]
	fed := cloud.Federation{}
	maxShares := make([]int, len(sc.Utils))
	for i, u := range sc.Utils {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name: fmt.Sprintf("sc%d", i), VMs: 10, ArrivalRate: u * 10,
			ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
		})
		maxShares[i] = sweepMaxShare
	}
	return core.Config{
		Federation: fed,
		Model:      core.ModelApprox,
		Gamma:      sc.Gamma,
		MaxShares:  maxShares,
		Approx:     approx.Config{Passes: 1, Prune: 1e-4, PoolCap: 4, Warm: warm},
	}
}

// goldenPoint is one expected sweep point; a nil welfare is -Inf (a dead
// market).
type goldenPoint struct {
	Ratio      float64    `json:"ratio"`
	Shares     []int      `json:"shares"`
	Converged  bool       `json:"converged"`
	Welfare    []*float64 `json:"welfare"`
	Efficiency []float64  `json:"efficiency"`
}

type goldenFile struct {
	Tolerance float64         `json:"tolerance"`
	Variants  [][]goldenPoint `json:"variants"`
}

func toGolden(pts []core.SweepPoint) []goldenPoint {
	out := make([]goldenPoint, len(pts))
	for i, p := range pts {
		g := goldenPoint{Ratio: p.Ratio, Shares: p.Shares, Converged: p.Converged, Efficiency: p.Efficiency}
		for _, w := range p.Welfare {
			if math.IsInf(w, 0) || math.IsNaN(w) {
				g.Welfare = append(g.Welfare, nil)
			} else {
				g.Welfare = append(g.Welfare, &w)
			}
		}
		out[i] = g
	}
	return out
}

// goldenPath is where the golden file sits relative to the repository root.
const goldenPath = "perfbench/golden/fig7a.json"

// writeGolden regenerates the golden file from serial sweeps.
func writeGolden(path string) error {
	gf := goldenFile{Tolerance: sweepTol}
	for v := 0; v < sweepVariants; v++ {
		f, err := core.New(fig7aConfig(nil))
		if err != nil {
			return err
		}
		pts, err := f.Sweep(sweepRatios(v), sweepAlphas, nil, core.SweepOptions{Workers: 1, WarmStart: true})
		if err != nil {
			return err
		}
		gf.Variants = append(gf.Variants, toGolden(pts))
	}
	// One point per line keeps the file short and its diffs readable.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"tolerance\": %v, \"variants\": [\n", gf.Tolerance)
	for v, pts := range gf.Variants {
		buf.WriteString(" [\n")
		for i, p := range pts {
			b, err := json.Marshal(p)
			if err != nil {
				return err
			}
			buf.WriteString("  ")
			buf.Write(b)
			if i < len(pts)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		if v < len(gf.Variants)-1 {
			buf.WriteString(" ],\n")
		} else {
			buf.WriteString(" ]\n")
		}
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readGolden(root string) (goldenFile, error) {
	var gf goldenFile
	b, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return gf, err
	}
	if err := json.Unmarshal(b, &gf); err != nil {
		return gf, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if len(gf.Variants) != sweepVariants || !(gf.Tolerance > 0) {
		return gf, fmt.Errorf("%s: want %d variants and a positive tolerance", goldenPath, sweepVariants)
	}
	return gf, nil
}

// checkSweep compares a grid with its golden points: shares and
// convergence exactly, welfare and efficiency within the golden tolerance.
func checkSweep(pts []core.SweepPoint, want []goldenPoint, tol float64) error {
	if len(pts) != len(want) {
		return fmt.Errorf("%d points, golden has %d", len(pts), len(want))
	}
	got := toGolden(pts)
	for i, g := range got {
		w := want[i]
		if !near(g.Ratio, w.Ratio, tol) || g.Converged != w.Converged || fmt.Sprint(g.Shares) != fmt.Sprint(w.Shares) {
			return fmt.Errorf("ratio %v: got shares %v converged %v, golden %v %v", w.Ratio, g.Shares, g.Converged, w.Shares, w.Converged)
		}
		if len(g.Welfare) != len(w.Welfare) || len(g.Efficiency) != len(w.Efficiency) {
			return fmt.Errorf("ratio %v: welfare/efficiency lengths differ from golden", w.Ratio)
		}
		for a := range g.Welfare {
			if (g.Welfare[a] == nil) != (w.Welfare[a] == nil) ||
				(g.Welfare[a] != nil && !near(*g.Welfare[a], *w.Welfare[a], tol)) {
				return fmt.Errorf("ratio %v alpha %d: welfare differs from golden", w.Ratio, a)
			}
			if !near(g.Efficiency[a], w.Efficiency[a], tol) {
				return fmt.Errorf("ratio %v alpha %d: efficiency %v, golden %v", w.Ratio, a, g.Efficiency[a], w.Efficiency[a])
			}
		}
	}
	return nil
}

// near reports |a-b| <= tol·max(1, |b|).
func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// runSweep is the sweep-fig7a workload: whole Fig. 7a grids through
// core.Framework.Sweep, each on a cold framework, with the options
// experiments.Fig7 passes (WarmStart, default Workers). The seed picks the
// ratio grid variant.
func runSweep(rc *runCtx) error {
	gf, err := readGolden(rc.root)
	if err != nil {
		return err
	}
	v := int(uint64(rc.seed) % sweepVariants)
	ratios, want := sweepRatios(v), gf.Variants[v]
	rc.samples["grid_variant"] = v

	// Set-up: what a process pays before its first grid — framework
	// construction, the no-sharing baselines, and one cold whole-vector
	// solve on a fresh solver handle.
	reps := setupReps
	if rc.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		err := rc.timeSetup(func() error {
			cfg := fig7aConfig(nil)
			f, err := core.New(cfg)
			if err != nil {
				return err
			}
			if _, err := f.Baselines(); err != nil {
				return err
			}
			acfg := cfg.Approx
			acfg.Federation, acfg.Shares = cfg.Federation, []int{2, 2, 2}
			s, err := approx.NewSolver(acfg)
			if err != nil {
				return err
			}
			_, err = s.SolveAll()
			return err
		})
		if err != nil {
			return err
		}
	}

	var rounds, memoHits, memoMisses, allSolves, warmHits, warmMisses, pruneJoints, grids float64
	var pruneMass float64
	grid := func(tr *tracer, op int64) (float64, error) {
		root := tr.begin("bench.grid", "bench", op, 0)
		t0 := time.Now()
		warm := approx.NewWarmCache()
		sp := tr.begin("core.new", "core", op, root.id())
		f, err := core.New(fig7aConfig(warm))
		sp.end()
		if err != nil {
			return 0, err
		}
		sw := tr.begin("core.sweep", "core", op, root.id())
		last := time.Now()
		opts := core.SweepOptions{WarmStart: true}
		if tr != nil {
			// Points finish out of grid order on the worker pool; each
			// completion closes the interval since the previous one.
			opts.OnPoint = func(int, core.SweepPoint) {
				now := time.Now()
				tr.add(span{ID: tr.nextID.Add(1), Parent: sw.id(), Op: op, Name: "core.sweep.point",
					Layer: "core", Start: tr.since(last), End: tr.since(now)})
				last = now
			}
		}
		pts, err := f.Sweep(ratios, sweepAlphas, nil, opts)
		sw.end()
		root.end()
		d := time.Since(t0).Seconds()
		rc.attempted++
		if err != nil {
			rc.fail("grid %d: %v", op, err)
			return d, nil
		}
		if err := checkSweep(pts, want, gf.Tolerance); err != nil {
			rc.fail("grid %d: %v", op, err)
		}
		for _, p := range pts {
			rounds += float64(p.Rounds)
		}
		if rep, ok := f.Evaluator().(market.CacheStatsReporter); ok {
			st := rep.Stats()
			memoHits += float64(st.Hits)
			memoMisses += float64(st.Misses)
			allSolves += float64(st.AllSolves)
		}
		ws, ps := warm.Stats(), f.PruneStats()
		warmHits += float64(ws.Hits)
		warmMisses += float64(ws.Misses)
		pruneMass += ps.TotalMass
		pruneJoints += float64(ps.Joints)
		grids++
		return d, nil
	}
	// loop runs whole grids for about d: a grid is started only while at
	// least half a grid's time is left, so runs of one length hold the same
	// number of grids. Each grid starts from a collected heap, as a fresh
	// process would.
	loop := func(d time.Duration, tr *tracer) ([]float64, error) {
		var lat []float64
		for start := time.Now(); len(lat) == 0 || time.Since(start).Seconds()+median(lat)/2 < d.Seconds(); {
			runtime.GC()
			x, err := grid(tr, int64(len(lat)+1))
			if err != nil {
				return nil, err
			}
			lat = append(lat, x)
		}
		return lat, nil
	}

	if err := rc.phase(func() ([]float64, error) { return loop(rc.phaseLen(), nil) }); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}
	tr := newTracer()
	traced, err := loop(rc.seconds-rc.phaseLen(), tr)
	if err != nil {
		return err
	}
	if grids > 0 {
		rc.layer["core.sweep.rounds"] = rounds / grids
		rc.layer["market.memo.hits"] = memoHits / grids
		rc.layer["market.memo.misses"] = memoMisses / grids
		rc.layer["approx.solve_all.calls"] = allSolves / grids
		rc.layer["approx.warm.hits"] = warmHits / grids
		rc.layer["approx.warm.misses"] = warmMisses / grids
		rc.layer["approx.prune.mass"] = pruneMass / grids
		rc.layer["approx.prune.joints"] = pruneJoints / grids
	}
	if memoHits+memoMisses > 0 {
		rc.layer["market.memo.hit_ratio"] = memoHits / (memoHits + memoMisses)
	}
	return rc.finishTrace("sweep-fig7a", tr, traced)
}
