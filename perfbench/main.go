// Command perfbench is the SC-Share benchmark: one command that runs a
// workload against the stack from outside (approx.Solver, market.*,
// core.Framework, spec.Cache and serve.New), times the calls it makes into
// those public functions, checks every output, and prints each metric by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload advise-warm --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (see endToEnd); with
// --trace 1 the run is split into an untraced, CPU-profiled half and a
// traced half, and the metrics are the per-layer ones (see perLayer).
// --workload all runs every workload in turn. README.md describes the
// workloads and what each metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set (BENCHMARK.json says why each was
// chosen). run fills rc; an error aborts the run without a result line.
type workload struct {
	name string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{"sweep-fig7a", runSweep},
	{"advise-warm", runAdvise},
	{"solveall-walk", runSolveAll},
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. An "op" is the workload's
// unit of work: one whole Fig. 7a grid, one served advise request, or one
// SolveAll call.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. A metric whose layer the
// workload does not reach reads 0; README.md lists which workload moves
// which metric.
var perLayer = []metricDef{
	{"serve.overhead_p50_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"spec.resolve_us", "us"},
	{"core.advise_p50_ms", "ms"},
	{"core.sweep.rounds", "count/op"},
	{"market.game_ms", "ms"},
	{"market.game.self_ms", "ms"},
	{"market.game.rounds", "count/op"},
	{"market.game.evals", "count/op"},
	{"market.eval_us", "us"},
	{"market.memo.hits", "count/op"},
	{"market.memo.misses", "count/op"},
	{"market.memo.hit_ratio", "ratio"},
	{"approx.solve_all.calls", "count/op"},
	{"approx.solve_all_p50_ms", "ms"},
	{"approx.solve_all_max_ms", "ms"},
	{"approx.warm.hits", "count/op"},
	{"approx.warm.misses", "count/op"},
	{"approx.prune.mass", "mass/op"},
	{"approx.prune.joints", "count/op"},
	{"markov.gs.iterations", "count/op"},
	{"markov.gs.solves", "count/op"},
	{"cpu.sparse", "%"},
	{"cpu.markov", "%"},
	{"cpu.approx", "%"},
	{"cpu.market", "%"},
	{"cpu.serve_net", "%"},
	{"cpu.gc", "%"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles", "count/op"},
	{"op_p99_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.self.bench_ms", "ms/op"},
	{"trace.self.net_ms", "ms/op"},
	{"trace.self.serve_ms", "ms/op"},
	{"trace.self.spec_ms", "ms/op"},
	{"trace.self.core_ms", "ms/op"},
	{"trace.self.market_ms", "ms/op"},
	{"trace.self.approx_ms", "ms/op"},
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 3

// runDeadline bounds a whole run, set-up and checks included.
const runDeadline = 170 * time.Second

// maxMismatches bounds the failure descriptions kept for the report.
const maxMismatches = 20

// maxReportedOps bounds the op latencies listed in the report.
const maxReportedOps = 1000

// runCtx carries one run's parameters and collects its outcome.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string

	attempted, failed int64
	mismatches        []string
	setup             []float64          // seconds per set-up repetition
	ops               []float64          // op latencies of the untraced phase, seconds
	elapsed           time.Duration      // length of the untraced phase
	layer             map[string]float64 // per-layer metrics (traced runs)
	samples           map[string]int     // sample counts behind the reported figures
}

// fail counts one failed or incorrect operation and keeps its description.
func (rc *runCtx) fail(format string, args ...any) {
	rc.failed++
	if len(rc.mismatches) < maxMismatches {
		rc.mismatches = append(rc.mismatches, fmt.Sprintf(format, args...))
	}
}

// timeSetup runs one set-up repetition and records its duration. Each
// repetition starts from a collected heap, so the garbage an earlier one
// left behind neither slows it nor adds to the run's peak memory.
func (rc *runCtx) timeSetup(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rc.setup = append(rc.setup, time.Since(t0).Seconds())
	return nil
}

// phaseLen is the length of the untraced measured phase: the whole run, or
// half of it when the other half is traced.
func (rc *runCtx) phaseLen() time.Duration {
	if rc.trace {
		return rc.seconds / 2
	}
	return rc.seconds
}

// phase runs the untraced measured phase, from a collected heap, and
// records its op latencies and length. In a traced run it also records what the runtime saw during the
// phase: allocation and GC per op, and the CPU split per package from a
// sampled profile. body returns the op latencies in seconds.
func (rc *runCtx) phase(body func() ([]float64, error)) error {
	var prof *cpuProfile
	if rc.trace {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	lat, err := body()
	rc.elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if prof != nil {
		shares, perr := prof.stop()
		if err == nil {
			err = perr
		}
		for k, v := range shares {
			rc.layer["cpu."+k] = v
		}
		rc.samples["cpu_profile_samples"] = int(shares["samples"])
		delete(rc.layer, "cpu.samples")
	}
	if err != nil {
		return err
	}
	rc.ops = lat
	n := float64(max(len(lat), 1))
	rc.layer["go.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	rc.layer["go.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / n
	return nil
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is percentile 0.5.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// peakRSSMB reports the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts identifies where and on what a run was made. The checkout the
// benchmark runs in need not be a git repository, so "commit" is a digest
// of the Go sources and module files under the root.
func hostFacts(root string, seed int64) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     sourceDigest(root),
		"seed":       seed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root (skipping dot
// directories such as the build directory) into a short hex digest.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne executes one workload and assembles its result line.
func runOne(w workload, seed int64, seconds time.Duration, trace bool, root string) (resultLine, error) {
	rc := &runCtx{
		seed: seed, seconds: seconds, trace: trace, root: root,
		layer:   make(map[string]float64),
		samples: make(map[string]int),
	}
	if err := w.run(rc); err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if rc.attempted < 1 {
		return resultLine{}, fmt.Errorf("%s: no operation attempted", w.name)
	}
	res := resultLine{
		Correct:   rc.failed == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   make(map[string]metricValue),
	}
	rc.samples["ops"] = len(rc.ops)
	rc.samples["setup_reps"] = len(rc.setup)
	if trace {
		rc.layer["op_p99_ms"] = percentile(rc.ops, 0.99) * 1e3
		rc.layer["fail_ratio"] = float64(rc.failed) / float64(rc.attempted)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{rc.layer[m.name], m.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":     median(rc.setup),
			"op_p50_ms":   median(rc.ops) * 1e3,
			"ops_per_s":   float64(len(rc.ops)) / rc.elapsed.Seconds(),
			"rss_peak_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	host := hostFacts(root, seed)
	fmt.Printf("host %s\n", mustJSON(host))
	fmt.Printf("workload %s seed %d trace %v: attempted %d failed %d samples %s\n",
		w.name, seed, trace, rc.attempted, rc.failed, mustJSON(rc.samples))
	for _, msg := range rc.mismatches {
		fmt.Printf("MISMATCH %s\n", msg)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	report := map[string]any{
		"workload": w.name, "trace": trace, "seconds": seconds.Seconds(),
		"host": host, "samples": rc.samples, "setup_s": rc.setup,
		"mismatches": rc.mismatches, "result": res,
	}
	if len(rc.ops) <= maxReportedOps {
		report["op_latencies_s"] = rc.ops
	}
	if err := writeReport(root, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, b2i(trace)), report); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// resultsDir is where reports and span dumps go, inside the build
// directory so the checkout's tracked files are never touched.
func resultsDir(root string) string { return filepath.Join(root, ".bench_build", "results") }

func writeReport(root, name string, v any) error {
	dir := resultsDir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep-fig7a, advise-warm, solveall-walk, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	root := flag.String("root", ".", "repository root (build directory and source digest)")
	golden := flag.Bool("write-golden", false, "regenerate golden/fig7a.json under the benchmark directory and exit")
	flag.Parse()

	// A hung solve must not outlive the run's time budget.
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its deadline")
		os.Exit(3)
	})
	if *golden {
		if err := writeGolden(filepath.Join(*root, "perfbench", "golden", "fig7a.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var sel []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var results []resultLine
	for _, w := range sel {
		res, err := runOne(w, *seed, dur, *trace == 1, *root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		final = resultLine{Correct: true, Metrics: make(map[string]metricValue)}
		for i, r := range results {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for k, v := range r.Metrics {
				final.Metrics[sel[i].name+"/"+k] = v
			}
		}
	}
	fmt.Println(mustJSON(final))
	if !final.Correct {
		fmt.Fprintln(os.Stderr, "perfbench:", errors.New("output check failed"))
		os.Exit(1)
	}
}
