package approx

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/markov"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/solveall_bits.golden from the current code")

const goldenBitsPath = "testdata/solveall_bits.golden"

// walkFed is the K=6 federation of the perfbench solveall-walk workload:
// 10 VMs per SC at cycling utilizations.
func walkFed() cloud.Federation {
	utils := []float64{0.7, 0.5, 0.8, 0.6, 0.75, 0.65}
	fed := cloud.Federation{FederationPrice: 0.5}
	for i, u := range utils {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name: fmt.Sprintf("sc%d", i), VMs: 10, ArrivalRate: 10 * u,
			ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
		})
	}
	return fed
}

// goldenCase is one solve pinned by the golden file. run drives a fresh
// handle (built from cfg with the case's counters attached) and returns
// the metrics to pin.
type goldenCase struct {
	name string
	cfg  Config
	run  func(s *Solver) ([]cloud.Metrics, error)
}

func solveAllOnce(s *Solver) ([]cloud.Metrics, error) { return s.SolveAll() }

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, k := range []int{2, 3, 4} {
		fed, shares := fedK(k)
		for _, passes := range []int{1, 2} {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("fedK%d/passes%d", k, passes),
				cfg:  Config{Federation: fed, Shares: shares, Passes: passes},
				run:  solveAllOnce,
			})
		}
	}
	fed3, shares3 := fedK(3)
	cases = append(cases,
		goldenCase{
			name: "fedK3/notrunc",
			cfg:  Config{Federation: fed3, Shares: shares3},
			run: func(s *Solver) ([]cloud.Metrics, error) {
				s.truncEps = 0
				return s.SolveAll()
			},
		},
		goldenCase{
			name: "fedK3/uncondition",
			cfg:  Config{Federation: fed3, Shares: shares3},
			run: func(s *Solver) ([]cloud.Metrics, error) {
				s.uncondition = true
				return s.SolveAll()
			},
		},
		goldenCase{
			name: "fedK3/solve1",
			cfg:  Config{Federation: fed3, Shares: shares3},
			run: func(s *Solver) ([]cloud.Metrics, error) {
				m, err := s.Solve(1)
				if err != nil {
					return nil, err
				}
				return []cloud.Metrics{m.Metrics()}, nil
			},
		},
	)
	walk := Config{Federation: walkFed(), Shares: []int{2, 3, 2, 3, 2, 3}, Passes: 1, Prune: 1e-4, PoolCap: 4}
	warmWalk := walk
	warmWalk.Warm = NewWarmCache()
	cases = append(cases,
		goldenCase{name: "walkK6", cfg: walk, run: solveAllOnce},
		// A warm second step along the walk: the first solve seeds the
		// second one's Gauss–Seidel starts through the WarmCache.
		goldenCase{
			name: "walkK6/warm-step",
			cfg:  warmWalk,
			run: func(s *Solver) ([]cloud.Metrics, error) {
				if _, err := s.SolveAll(); err != nil {
					return nil, err
				}
				return s.SolveAll(WithShares([]int{3, 3, 2, 3, 2, 3}))
			},
		},
	)
	return cases
}

// goldenLines renders every case's metrics, truncation account, Gauss–Seidel
// counts and warm-cache traffic, floats as hex Float64bits.
func goldenLines(t *testing.T) []string {
	t.Helper()
	hex := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	var lines []string
	for _, tc := range goldenCases() {
		cfg := tc.cfg
		var stats markov.SolveStats
		cfg.Solver.Stats = &stats
		counter := &PruneCounter{}
		cfg.PruneStats = counter
		s, err := NewSolver(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ms, err := tc.run(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, m := range ms {
			lines = append(lines, fmt.Sprintf("%s sc%d %s %s %s %s %s", tc.name, i,
				hex(m.PublicRate), hex(m.BorrowRate), hex(m.LendRate), hex(m.Utilization), hex(m.ForwardProb)))
		}
		ps := counter.Stats()
		lines = append(lines, fmt.Sprintf("%s prune %s %s %d", tc.name, hex(ps.TotalMass), hex(ps.MaxMass), ps.Joints))
		lines = append(lines, fmt.Sprintf("%s gs %d %d", tc.name, stats.Iterations, stats.Solves))
		ws := cfg.Warm.Stats()
		lines = append(lines, fmt.Sprintf("%s warm %d %d %d", tc.name, ws.Hits, ws.Misses, ws.Stores))
	}
	return lines
}

// TestSolveAllGoldenBits pins cold-handle SolveAll and Solve outputs bit for
// bit against a golden file: metrics as Float64bits, the truncated mass
// (PruneCounter), Gauss–Seidel iteration and solve counts, and warm-cache
// traffic. Regenerate with -update-golden only for a deliberate change of
// the numbers. amd64 only: on other architectures the compiler may fuse
// multiply-adds, which moves the last bits.
func TestSolveAllGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	got := goldenLines(t)
	if *updateGolden {
		body := "# Cold-handle approx solves as hex Float64bits; see TestSolveAllGoldenBits.\n" +
			"# case sc<i> PublicRate BorrowRate LendRate Utilization ForwardProb\n" +
			"# case prune TotalMass MaxMass Joints | case gs Iterations Solves | case warm Hits Misses Stores\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenBitsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBitsPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenBitsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		want = append(want, string(line))
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, solves produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
