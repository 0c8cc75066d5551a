package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"scshare/internal/core"
	"scshare/internal/market"
)

// benchSpec is the Fig. 7a sweep configuration (utilizations
// 0.58/0.73/0.84 on 10 VMs, approximate model with one pass, 1e-4 pruning
// and a 4-VM usage cap, shares capped at 4) that perfbench's sweep-fig7a
// workload also runs, as a service request.
func benchSpec() federationSpec {
	return federationSpec{
		SCs: []scSpec{
			{VMs: 10, ArrivalRate: 5.8},
			{VMs: 10, ArrivalRate: 7.3},
			{VMs: 10, ArrivalRate: 8.4},
		},
		Model:    "approx",
		MaxShare: 4,
		Approx:   &approxSpec{Passes: 1, Prune: 1e-4, PoolCap: 4},
	}
}

var benchRatios = []float64{0.2, 0.4, 0.6, 0.8}

// BenchmarkServedSweepFig7a times the Fig. 7a grid through the HTTP
// service — a fresh server per iteration, so every run pays the cold
// caches plus the request decoding, NDJSON encoding, and transport that
// serving adds. Dividing it by the in-process time below gives the
// serving overhead of a whole sweep (the historical BENCH_4.json ratio);
// the standing per-request figure is perfbench's serve.overhead_p50_ms on
// the advise-warm workload.
func BenchmarkServedSweepFig7a(b *testing.B) {
	body, err := json.Marshal(sweepRequest{
		federationSpec: benchSpec(),
		Ratios:         benchRatios,
		Alphas:         []string{"utilitarian", "proportional", "maxmin"},
		Workers:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := httptest.NewServer(New(Options{}))
		b.StartTimer()
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep = %d (%v)", resp.StatusCode, err)
		}
		if lines := bytes.Count(out, []byte("\n")); lines != len(benchRatios)+1 {
			b.Fatalf("streamed %d lines, want %d points + trailer", lines, len(benchRatios))
		}
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
}

// BenchmarkInProcessSweepFig7a is the same grid on the same cold caches
// without the service: framework construction plus Framework.Sweep, the
// baseline the served number is compared against.
func BenchmarkInProcessSweepFig7a(b *testing.B) {
	spec := benchSpec()
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	alphas := []float64{market.AlphaUtilitarian, market.AlphaProportional, market.AlphaMaxMin}
	for i := 0; i < b.N; i++ {
		fw, err := core.New(spec.Config())
		if err != nil {
			b.Fatal(err)
		}
		pts, err := fw.SweepContext(context.Background(), benchRatios, alphas, nil,
			core.SweepOptions{Workers: 1, WarmStart: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(benchRatios) {
			b.Fatalf("swept %d points", len(pts))
		}
	}
}
