package market

import (
	"sync"
	"sync/atomic"
	"testing"

	"scshare/internal/cloud"
)

// testFederation builds a small 3-SC federation for concurrency tests.
func testFederation() cloud.Federation {
	return cloud.Federation{
		FederationPrice: 0.4,
		SCs: []cloud.SC{
			{VMs: 6, ArrivalRate: 4, ServiceRate: 1, SLA: 0.5, PublicPrice: 1},
			{VMs: 5, ArrivalRate: 3, ServiceRate: 1, SLA: 0.5, PublicPrice: 1},
			{VMs: 4, ArrivalRate: 2, ServiceRate: 1, SLA: 0.5, PublicPrice: 1},
		},
	}
}

// TestMemoizeConcurrent hammers the memoizing evaluator with overlapping
// keys from many goroutines: every caller must observe the same metrics,
// and the wrapped evaluator must run at most once per key.
func TestMemoizeConcurrent(t *testing.T) {
	fed := testFederation()
	var solves atomic.Int64
	base := EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
		solves.Add(1)
		return cloud.Metrics{Utilization: float64(shares[target]) + float64(target)/10}, nil
	})
	ev := Memoize(base)

	const goroutines = 16
	const rounds = 40
	type obs struct {
		key int
		m   cloud.Metrics
	}
	results := make([][]obs, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := r % 4
				target := r % len(fed.SCs)
				m, err := ev.Evaluate([]int{s, s, s}, target)
				if err != nil {
					t.Errorf("goroutine %d: %v", gi, err)
					return
				}
				results[gi] = append(results[gi], obs{key: s*10 + target, m: m})
			}
		}(gi)
	}
	wg.Wait()

	want := make(map[int]cloud.Metrics)
	for _, rs := range results {
		for _, o := range rs {
			if prev, ok := want[o.key]; ok && prev != o.m {
				t.Fatalf("key %d observed two different metrics: %+v vs %+v", o.key, prev, o.m)
			}
			want[o.key] = o.m
		}
	}
	// 4 share levels x 3 targets = 12 distinct keys; in-flight
	// deduplication must collapse every concurrent repeat.
	if got := solves.Load(); got != int64(len(want)) {
		t.Fatalf("wrapped evaluator ran %d times for %d distinct keys", got, len(want))
	}
}

// TestSimEvaluatorConcurrent checks that parallel simulation requests for
// the same share vector share one run and agree on the result.
func TestSimEvaluatorConcurrent(t *testing.T) {
	fed := testFederation()
	ev := SimEvaluator(fed, 400, 50, 7)

	const goroutines = 8
	metrics := make([]cloud.Metrics, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			metrics[gi], errs[gi] = ev.Evaluate([]int{2, 2, 1}, gi%len(fed.SCs))
		}(gi)
	}
	wg.Wait()
	for gi := 0; gi < goroutines; gi++ {
		if errs[gi] != nil {
			t.Fatalf("goroutine %d: %v", gi, errs[gi])
		}
		if prev := metrics[gi%len(fed.SCs)]; prev != metrics[gi] {
			t.Fatalf("target %d observed diverging metrics: %+v vs %+v", gi%len(fed.SCs), prev, metrics[gi])
		}
	}
}

// TestWithParticipationConcurrent exercises the participant-set cache and
// the baseline cache from many goroutines, including the S_i = 0
// drop-out path.
func TestWithParticipationConcurrent(t *testing.T) {
	fed := testFederation()
	ev := WithParticipation(fed, func(sub cloud.Federation) Evaluator {
		return EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
			return cloud.Metrics{Utilization: float64(len(shares))}, nil
		})
	})

	vectors := [][]int{
		{1, 1, 1},
		{0, 1, 1},
		{1, 0, 1},
		{2, 2, 0},
		{0, 0, 1},
	}
	var wg sync.WaitGroup
	for gi := 0; gi < 12; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				shares := vectors[(gi+r)%len(vectors)]
				target := (gi + r) % len(fed.SCs)
				if _, err := ev.Evaluate(shares, target); err != nil {
					t.Errorf("shares %v target %d: %v", shares, target, err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestRunMultiStartParallel checks that the multi-start selector, whose
// games fan their Jacobi rounds across GOMAXPROCS, picks the same outcome
// as running each start by hand against a fresh cache.
func TestRunMultiStartParallel(t *testing.T) {
	fed := testFederation()
	g := &Game{
		Federation: fed,
		Evaluator:  Memoize(newToyEvaluator(t, fed)),
		Gamma:      0.5,
		MaxRounds:  30,
	}
	initials := [][]int{
		nil,
		{0, 0, 0},
		{2, 2, 2},
		{3, 1, 0},
	}
	par, err := g.RunMultiStart(initials, 1)
	if err != nil {
		t.Fatalf("parallel multi-start: %v", err)
	}

	// Sequential reference with a fresh cache.
	g2 := &Game{
		Federation: fed,
		Evaluator:  Memoize(newToyEvaluator(t, fed)),
		Gamma:      0.5,
		MaxRounds:  30,
	}
	var best *Outcome
	bestW := -1.0
	for _, init := range initials {
		out, err := g2.Run(init)
		if err != nil {
			continue
		}
		w, werr := Welfare(1, out.Shares, out.Utilities)
		if werr != nil {
			t.Fatalf("welfare: %v", werr)
		}
		if best == nil || w > bestW {
			best, bestW = out, w
		}
	}
	if best == nil {
		t.Fatal("sequential reference found no equilibrium")
	}
	for i := range best.Shares {
		if par.Shares[i] != best.Shares[i] {
			t.Fatalf("parallel shares %v != sequential shares %v", par.Shares, best.Shares)
		}
	}
}
