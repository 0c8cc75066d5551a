package market

import (
	"math"
	"sort"

	"scshare/internal/cloud"
)

// CacheDump is the serializable image of a memoized evaluator's cache: the
// solved whole-vector metrics (one []cloud.Metrics per share vector),
// keyed exactly as the live cache keys them. Only successful whole-vector
// solves are exported — errors are transient (cancellation, a bad trial
// vector) and must not survive a restart, and every NewEvaluator model is
// an AllEvaluator, so a framework's cache holds no per-target lines. The
// dump carries no version of its own: the spec snapshot envelope that
// embeds it is the one versioned layer.
type CacheDump struct {
	Vectors []VectorEntry `json:"vectors,omitempty"`
}

// VectorEntry is one whole-vector cache line.
type VectorEntry struct {
	Key     string          `json:"key"`
	Metrics []cloud.Metrics `json:"metrics"`
}

// CacheSnapshotter is implemented by the evaluators Memoize returns: the
// snapshot/restore path (spec.Cache.WriteSnapshot, scserve -snapshot)
// exports a drained replica's cache and seeds a booting one.
type CacheSnapshotter interface {
	ExportCache() CacheDump
	// ImportCache merges a dump into the cache without overwriting live
	// entries, returning how many entries were adopted. It silently skips
	// malformed entries (empty keys or vectors, non-finite metrics) — a
	// snapshot is an optimization, not a source of truth.
	ImportCache(CacheDump) int
}

// finiteMetrics reports whether every field of m is a finite number —
// the import-side guard keeping a corrupted snapshot out of the cache.
func finiteMetrics(m cloud.Metrics) bool {
	for _, v := range []float64{m.PublicRate, m.BorrowRate, m.LendRate, m.Utilization, m.ForwardProb} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ExportCache implements CacheSnapshotter. In-flight solves, error entries
// and per-target entries are skipped; the output is sorted by key, so
// equal caches dump byte-identical snapshots.
func (me *memoEvaluator) ExportCache() CacheDump {
	var d CacheDump
	for i := range me.shards {
		s := &me.shards[i]
		s.mu.Lock()
		for key, e := range s.cache {
			if e.err == nil && e.all != nil {
				d.Vectors = append(d.Vectors, VectorEntry{Key: key, Metrics: e.all})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(d.Vectors, func(i, j int) bool { return d.Vectors[i].Key < d.Vectors[j].Key })
	return d
}

// ImportCache implements CacheSnapshotter.
func (me *memoEvaluator) ImportCache(d CacheDump) int {
	adopted := 0
	for _, v := range d.Vectors {
		if v.Key == "" || len(v.Metrics) == 0 {
			continue
		}
		ok := true
		for _, m := range v.Metrics {
			if !finiteMetrics(m) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s := me.shardOf(v.Key)
		s.mu.Lock()
		if _, exists := s.cache[v.Key]; !exists {
			s.cache[v.Key] = memoEntry{all: v.Metrics}
			adopted++
		}
		s.mu.Unlock()
	}
	return adopted
}
