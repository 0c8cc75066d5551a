package market

import (
	"math"
	"reflect"
	"testing"

	"scshare/internal/cloud"
)

// TestCacheDumpRoundTrip: export from a warmed cache, import into a cold
// one, and the cold cache must answer the same keys without a single inner
// solve.
func TestCacheDumpRoundTrip(t *testing.T) {
	vectors := [][]int{{1, 2}, {3, 4}, {0, 0}}
	warmInner := &countingAllEvaluator{}
	warm := Memoize(warmInner)
	for _, shares := range vectors {
		for target := 0; target < 2; target++ {
			if _, err := warm.Evaluate(shares, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	dump := warm.(CacheSnapshotter).ExportCache()
	if len(dump.Vectors) != 3 {
		t.Fatalf("dump holds %d vectors, want 3", len(dump.Vectors))
	}

	coldInner := &countingAllEvaluator{}
	cold := Memoize(coldInner)
	if n := cold.(CacheSnapshotter).ImportCache(dump); n != 3 {
		t.Fatalf("adopted %d entries, want 3", n)
	}
	for _, shares := range vectors {
		for target := 0; target < 2; target++ {
			got, err := cold.Evaluate(shares, target)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := warm.Evaluate(shares, target)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored metrics diverged: %+v vs %+v", got, want)
			}
		}
	}
	if n := coldInner.solves.Load(); n != 0 {
		t.Fatalf("restored cache still ran %d inner solves", n)
	}
	if st := cold.(CacheStatsReporter).Stats(); st.Hits != 6 || st.Misses != 0 {
		t.Fatalf("restored cache stats = %+v", st)
	}

	// Exports are deterministic: a second export of the same cache must be
	// identical (keys sorted, not map-ordered).
	if again := warm.(CacheSnapshotter).ExportCache(); !reflect.DeepEqual(dump, again) {
		t.Fatal("repeated exports of one cache differ")
	}
}

// TestCacheDumpImportGuards: malformed entries are skipped, imports never
// overwrite live entries, and per-target lines are never exported.
func TestCacheDumpImportGuards(t *testing.T) {
	ev := Memoize(&countingAllEvaluator{}).(CacheSnapshotter)
	n := ev.ImportCache(CacheDump{Vectors: []VectorEntry{
		{Key: "", Metrics: []cloud.Metrics{{}}},                          // empty key
		{Key: "4,", Metrics: nil},                                        // empty vector
		{Key: "5,", Metrics: []cloud.Metrics{{Utilization: math.NaN()}}}, // poisoned
		{Key: "6,", Metrics: []cloud.Metrics{{PublicRate: math.Inf(1)}}},
		{Key: "3,", Metrics: []cloud.Metrics{{PublicRate: 7}}}, // the one good entry
	}})
	if n != 1 {
		t.Fatalf("adopted %d entries, want only the finite one", n)
	}

	// A live entry must survive an import that carries the same key.
	live := Memoize(&countingAllEvaluator{})
	if _, err := live.Evaluate([]int{9}, 0); err != nil {
		t.Fatal(err)
	}
	key := live.(CacheSnapshotter).ExportCache().Vectors[0].Key
	n = live.(CacheSnapshotter).ImportCache(CacheDump{
		Vectors: []VectorEntry{{Key: key, Metrics: []cloud.Metrics{{PublicRate: -999}}}},
	})
	if n != 0 {
		t.Fatalf("import overwrote a live entry (adopted %d)", n)
	}
	if got, _ := live.Evaluate([]int{9}, 0); got.Utilization != 9 || got.PublicRate != 0 {
		t.Fatalf("live entry clobbered: %+v", got)
	}

	// A per-target inner caches per-target lines; they stay out of the dump.
	perTarget := Memoize(EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
		return cloud.Metrics{PublicRate: float64(shares[target])}, nil
	}))
	if _, err := perTarget.Evaluate([]int{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if d := perTarget.(CacheSnapshotter).ExportCache(); len(d.Vectors) != 0 {
		t.Fatalf("per-target cache exported %d vectors", len(d.Vectors))
	}
}
