package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scshare/internal/core"
	"scshare/internal/market"
	"scshare/internal/serve"
	"scshare/internal/spec"
)

// adviseClients is the closed loop's client count: one per CPU of the
// two-core host the benchmark was sized on.
const adviseClients = 2

// advisePrices is the federation-price lattice the walk moves on:
// 0.20 to 0.90 in steps of 0.01. Set-up primes every spec at every price.
func advisePrices() []float64 {
	p := make([]float64, 71)
	for i := range p {
		p[i] = math.Round((0.20+0.01*float64(i))*100) / 100
	}
	return p
}

// adviseSpecs are the fixed federation specs the clients ask about, with
// the approximate-model settings of the internal/serve bench spec (one
// pass, 1e-4 pruning, a 4-VM usage cap). They are smaller than Fig. 7a so
// that priming them cold stays within a few seconds.
func adviseSpecs() []spec.Federation {
	ax := func() *spec.Approx { return &spec.Approx{Passes: 1, Prune: 1e-4, PoolCap: 4} }
	return []spec.Federation{
		{SCs: []spec.SC{{VMs: 10, ArrivalRate: 6}, {VMs: 10, ArrivalRate: 8}},
			MaxShare: 4, Gamma: market.UF0, Approx: ax()},
		{SCs: []spec.SC{{VMs: 6, ArrivalRate: 3.5}, {VMs: 6, ArrivalRate: 4.4}, {VMs: 6, ArrivalRate: 5}},
			MaxShare: 3, Gamma: market.UF1, Approx: ax()},
	}
}

// inProcessEvery is how often a traced phase traces a request of client 0
// and follows it with the in-process calls: every sixteenth request still
// gives thousands of samples while keeping the span log well under
// maxSpans. Other requests run untraced.
const inProcessEvery = 16

// adviseBody is the POST /v1/advise request: the spec plus a price.
type adviseBody struct {
	spec.Federation
	Price float64 `json:"price"`
}

// adviseReply mirrors the fields of the /v1/advise response that carry the
// advice.
type adviseReply struct {
	FederationPrice float64   `json:"federationPrice"`
	PriceRatio      float64   `json:"priceRatio"`
	Rounds          int       `json:"rounds"`
	Evaluations     int       `json:"evaluations"`
	Converged       bool      `json:"converged"`
	SCs             []scReply `json:"scs"`
}

// scReply is one SC's advice; a null utility is -Inf.
type scReply struct {
	Name                string   `json:"name"`
	Share               int      `json:"share"`
	Join                bool     `json:"join"`
	BaselineCostPerSec  float64  `json:"baselineCostPerSec"`
	CostPerSec          float64  `json:"costPerSec"`
	SavingPerSec        float64  `json:"savingPerSec"`
	BorrowVMs           float64  `json:"borrowVMs"`
	LendVMs             float64  `json:"lendVMs"`
	Utilization         float64  `json:"utilization"`
	BaselineUtilization float64  `json:"baselineUtilization"`
	Utility             *float64 `json:"utility"`
}

// adviseTol bounds the relative difference of served and in-process float
// fields. Both sides are primed in the same order, but each game evaluates
// a round's best responses on GOMAXPROCS workers, so which neighbour seeds
// a vector's warm-started Gauss–Seidel solve depends on scheduling; the
// metrics then agree to the solver's tolerance (observed ~2e-9), not bit
// for bit. Shares, join decisions, rounds and evaluations must match
// exactly.
const adviseTol = 1e-6

// compareAdvice checks a served reply against in-process advice: counts,
// shares and flags exactly, floats within adviseTol.
func compareAdvice(got adviseReply, want *core.Advice) error {
	if got.Rounds != want.Rounds || got.Evaluations != want.Evaluations || got.Converged != want.Converged ||
		len(got.SCs) != len(want.SCs) {
		return fmt.Errorf("rounds/evaluations/converged/SC count %d/%d/%v/%d, in-process %d/%d/%v/%d",
			got.Rounds, got.Evaluations, got.Converged, len(got.SCs),
			want.Rounds, want.Evaluations, want.Converged, len(want.SCs))
	}
	fl := [][2]float64{{got.FederationPrice, want.FederationPrice}, {got.PriceRatio, want.PriceRatio}}
	for i, g := range got.SCs {
		w := want.SCs[i]
		if g.Name != w.Name || g.Share != w.Share || g.Join != w.Join {
			return fmt.Errorf("SC %d: share %d join %v, in-process %d %v", i, g.Share, g.Join, w.Share, w.Join)
		}
		if (g.Utility == nil) != math.IsInf(w.Utility, 0) {
			return fmt.Errorf("SC %d: utility finiteness differs", i)
		}
		if g.Utility != nil {
			fl = append(fl, [2]float64{*g.Utility, w.Utility})
		}
		fl = append(fl,
			[2]float64{g.BaselineCostPerSec, w.BaselineCostPerSec}, [2]float64{g.CostPerSec, w.CostPerSec},
			[2]float64{g.SavingPerSec, w.SavingPerSec}, [2]float64{g.BorrowVMs, w.BorrowVMs},
			[2]float64{g.LendVMs, w.LendVMs}, [2]float64{g.Utilization, w.Utilization},
			[2]float64{g.BaselineUtilization, w.BaselineUtilization})
	}
	for _, p := range fl {
		if !near(p[0], p[1], adviseTol) {
			return fmt.Errorf("served %v, in-process %v", p[0], p[1])
		}
	}
	return nil
}

// server is an in-process serve.New instance on a loopback listener.
type server struct {
	hs   *http.Server
	url  string
	done chan error
}

func startServer(handler func(*serve.Server) http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: handler(serve.New(serve.Options{}))}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Errors    int64 `json:"errors"`
	Admission struct {
		Shed             int64   `json:"shed"`
		QueueWaitSeconds float64 `json:"queueWaitSeconds"`
	} `json:"admission"`
	Cache struct {
		Hits              uint64 `json:"hits"`
		Misses            uint64 `json:"misses"`
		WholeVectorSolves uint64 `json:"wholeVectorSolves"`
	} `json:"cache"`
	Pruning struct {
		TruncatedMass   float64 `json:"truncatedMass"`
		TruncatedJoints uint64  `json:"truncatedJoints"`
	} `json:"pruning"`
}

func fetchMetrics(c *http.Client, url string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// post sends one advise request and returns its latency, status and body.
// Spans, when traced, carry the parent and op ids to the server wrapper.
func post(c *http.Client, url string, body []byte, op, parent int64) (time.Duration, int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/advise", bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
		req.Header.Set("X-Bench-Parent", strconv.FormatInt(parent, 10))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return time.Since(t0), resp.StatusCode, b, err
}

// tracedHandler records a serve.handler span around each request the
// server handles, under the client span named in the request headers.
func tracedHandler(tr *tracer) func(*serve.Server) http.Handler {
	return func(s *serve.Server) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Parent"), 10, 64)
			if parent == 0 {
				s.ServeHTTP(w, r)
				return
			}
			op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
			sp := tr.begin("serve.handler", "serve", op, parent)
			s.ServeHTTP(w, r)
			sp.end()
		})
	}
}

func plainHandler(s *serve.Server) http.Handler { return s }

// key names one (spec, price) pair of the lattice.
type key struct{ spec, price int }

// served keeps, per lattice point, the first reply body and any later
// body that differed from it byte for byte.
type served struct {
	mu     sync.Mutex
	bodies map[key][][]byte
}

func (s *served) record(k key, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.bodies[k]
	if len(prev) == 0 || (!bytes.Equal(prev[0], b) && len(prev) <= maxMismatches) {
		s.bodies[k] = append(prev, b)
	}
}

// layerSamples are the traced phase's in-process timings, taken by client
// 0 alone right after each of its served requests.
type layerSamples struct {
	overhead, resolve, advise []float64 // seconds
	rounds, evals             int
	n                         int
}

// adviseRun is one advise-warm run's state.
type adviseRun struct {
	rc     *runCtx
	specs  []spec.Federation
	prices []float64
	bodies map[key][]byte
	client *http.Client
	srv    *server
	tr     *tracer

	ref    *spec.Cache
	refFw  []*core.Framework
	stacks []*tracedStack

	served served
	ls     layerSamples // written by client 0 alone

	// mu serializes the clients' updates of rc's failure counters.
	mu sync.Mutex
}

func (a *adviseRun) fail(format string, args ...any) {
	a.mu.Lock()
	a.rc.fail(format, args...)
	a.mu.Unlock()
}

// prime asks the server about every spec at every price, in order, from
// one client.
func (a *adviseRun) prime(s *server) error {
	for si := range a.specs {
		for pi := range a.prices {
			_, code, b, err := post(a.client, s.url, a.bodies[key{si, pi}], 0, 0)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("priming: status %d: %s", code, b)
			}
		}
	}
	return nil
}

// normalized returns a normalized copy of spec si; the template is never
// written through.
func (a *adviseRun) normalized(si int) (spec.Federation, error) {
	sp := a.specs[si]
	sp.SCs = append([]spec.SC(nil), sp.SCs...)
	if sp.Approx != nil {
		ax := *sp.Approx
		sp.Approx = &ax
	}
	err := sp.Normalize()
	return sp, err
}

// resolve is the spec layer's work on a request: normalize a fresh copy of
// spec si, derive its cache key, and look its framework up.
func (a *adviseRun) resolve(si int) (*core.Framework, error) {
	sp, err := a.normalized(si)
	if err != nil {
		return nil, err
	}
	if _, err := sp.Key(); err != nil {
		return nil, err
	}
	return a.ref.Framework(&sp)
}

// primeReference builds the in-process reference — the same specs through
// a spec.Cache of the benchmark's own — and primes it in the server's
// order, so both solve each vector from the same warm-start history. In a
// traced run it also builds and primes one traced market stack per spec.
func (a *adviseRun) primeReference() error {
	a.ref = spec.NewCache(0)
	a.refFw = make([]*core.Framework, len(a.specs))
	for si := range a.specs {
		fw, err := a.resolve(si)
		if err != nil {
			return err
		}
		a.refFw[si] = fw
		var st *tracedStack
		if a.tr != nil {
			sp, err := a.normalized(si)
			if err != nil {
				return err
			}
			st = newTracedStack(sp.Config(), a.tr)
			a.stacks = append(a.stacks, st)
		}
		for _, p := range a.prices {
			if _, err := fw.AdviseAt(context.Background(), p, nil, market.AlphaUtilitarian); err != nil {
				return err
			}
			if st != nil {
				if _, err := st.equilibrium(context.Background(), p, nil, market.AlphaUtilitarian, 0, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// inProcess times the layers under one served request on the same stream:
// spec resolution, core.Framework.AdviseAt, and the traced market stack's
// game. It checks the served body against the in-process advice.
func (a *adviseRun) inProcess(op, parent int64, k key, body []byte, served time.Duration) error {
	price := a.prices[k.price]
	sp := a.tr.begin("spec.resolve", "spec", op, parent)
	t0 := time.Now()
	fw, err := a.resolve(k.spec)
	a.ls.resolve = append(a.ls.resolve, time.Since(t0).Seconds())
	sp.end()
	if err != nil {
		return err
	}
	sp = a.tr.begin("core.advise", "core", op, parent)
	t0 = time.Now()
	want, err := fw.AdviseAt(context.Background(), price, nil, market.AlphaUtilitarian)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	a.ls.advise = append(a.ls.advise, d.Seconds())
	a.ls.overhead = append(a.ls.overhead, (served - d).Seconds())
	out, err := a.stacks[k.spec].equilibrium(context.Background(), price, nil, market.AlphaUtilitarian, op, parent)
	if err != nil {
		return err
	}
	a.ls.rounds += out.Rounds
	a.ls.evals += out.Evals
	a.ls.n++
	var got adviseReply
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return compareAdvice(got, want)
}

// loop runs the closed loop for d. Every phase replays the same seeded
// walks; phase only keeps op ids apart. With tr set, every
// inProcessEvery-th request of client 0 is traced and followed by the
// in-process layers on the same stream.
func (a *adviseRun) loop(d time.Duration, tr *tracer, phase int64) []float64 {
	lat := make([][]float64, adviseClients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < adviseClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(a.rc.seed*7919 + int64(c)))
			pos := make([]int, len(a.specs))
			for i := range pos {
				pos[i] = rng.Intn(len(a.prices))
			}
			for n := int64(1); time.Now().Before(deadline); n++ {
				si := rng.Intn(len(a.specs))
				pos[si] = min(max(pos[si]+rng.Intn(3)-1, 0), len(a.prices)-1)
				k := key{si, pos[si]}
				op := int64(c)<<40 | phase<<32 | n
				rt := tr
				if c != 0 || n%inProcessEvery != 0 {
					rt = nil
				}
				root := rt.begin("bench.advise", "bench", op, 0)
				sp := rt.begin("net.request", "net", op, root.id())
				dur, code, b, err := post(a.client, a.srv.url, a.bodies[k], op, sp.id())
				sp.end()
				a.mu.Lock()
				a.rc.attempted++
				a.mu.Unlock()
				if err != nil || code != http.StatusOK {
					root.end()
					a.fail("spec %d price %v: status %d err %v", si, a.prices[k.price], code, err)
					continue
				}
				lat[c] = append(lat[c], dur.Seconds())
				a.served.record(k, b)
				if rt != nil {
					if err := a.inProcess(op, root.id(), k, b, dur); err != nil {
						a.fail("in-process spec %d price %v: %v", si, a.prices[k.price], err)
					}
				}
				root.end()
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

// verify checks every distinct served reply against the in-process
// advice for its spec and price. A lattice point served two different
// bodies is a failure by itself.
func (a *adviseRun) verify() error {
	for k, bodies := range a.served.bodies {
		want, err := a.refFw[k.spec].AdviseAt(context.Background(), a.prices[k.price], nil, market.AlphaUtilitarian)
		if err != nil {
			return err
		}
		for i, b := range bodies {
			if i > 0 {
				a.rc.fail("spec %d price %v: served two different replies", k.spec, a.prices[k.price])
			}
			var got adviseReply
			if err := json.Unmarshal(b, &got); err != nil {
				a.rc.fail("spec %d price %v: decoding reply: %v", k.spec, a.prices[k.price], err)
				continue
			}
			if err := compareAdvice(got, want); err != nil {
				a.rc.fail("spec %d price %v: %v", k.spec, a.prices[k.price], err)
			}
		}
	}
	a.rc.samples["distinct_questions"] = len(a.served.bodies)
	return nil
}

// runAdvise is the advise-warm workload: a closed loop of two clients
// POSTing /v1/advise to an in-process serve.New server for fixed specs at
// seeded random-walk prices, after set-up primed every spec at every price.
func runAdvise(rc *runCtx) error {
	a := &adviseRun{
		rc: rc, specs: adviseSpecs(), prices: advisePrices(), bodies: make(map[key][]byte),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: adviseClients + 1}},
		served: served{bodies: make(map[key][][]byte)},
	}
	defer a.client.CloseIdleConnections()
	for si, sp := range a.specs {
		for pi, p := range a.prices {
			b, err := json.Marshal(adviseBody{Federation: sp, Price: p})
			if err != nil {
				return err
			}
			a.bodies[key{si, pi}] = b
		}
	}
	handler, reps := plainHandler, setupReps
	if rc.trace {
		a.tr = newTracer()
		handler, reps = tracedHandler(a.tr), 1
	}
	// Set-up: start a server and prime its caches; repeated, and the last
	// server is the one measured.
	for i := 0; i < reps; i++ {
		if a.srv != nil {
			if err := a.srv.stop(); err != nil {
				return err
			}
			a.srv = nil
		}
		err := rc.timeSetup(func() error {
			var err error
			if a.srv, err = startServer(handler); err != nil {
				return err
			}
			return a.prime(a.srv)
		})
		if err != nil {
			if a.srv != nil {
				a.srv.stop()
			}
			return err
		}
	}
	defer a.srv.stop()
	if rc.trace {
		// The traced phase calls the reference inline, so it is primed now.
		if err := a.primeReference(); err != nil {
			return err
		}
	}

	before, err := fetchMetrics(a.client, a.srv.url)
	if err != nil {
		return err
	}
	if err := rc.phase(func() ([]float64, error) { return a.loop(rc.phaseLen(), nil, 1), nil }); err != nil {
		return err
	}
	var traced []float64
	var warm0 [2]uint64
	if rc.trace {
		for _, st := range a.stacks {
			st.solve.take()
			ws := st.warm.Stats()
			warm0[0] += ws.Hits
			warm0[1] += ws.Misses
		}
		traced = a.loop(rc.seconds-rc.phaseLen(), a.tr, 2)
	}
	after, err := fetchMetrics(a.client, a.srv.url)
	if err != nil {
		return err
	}
	if !rc.trace {
		// Built after the timed phase, so the reference does not compete
		// with the server for the CPUs.
		if err := a.primeReference(); err != nil {
			return err
		}
	}
	if err := a.verify(); err != nil {
		return err
	}
	if !rc.trace {
		return nil
	}

	nOps := float64(max(len(rc.ops)+len(traced), 1))
	rc.layer["serve.queue_wait_s"] = after.Admission.QueueWaitSeconds - before.Admission.QueueWaitSeconds
	rc.layer["serve.shed"] = float64(after.Admission.Shed - before.Admission.Shed)
	rc.layer["serve.errors"] = float64(after.Errors - before.Errors)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	rc.layer["market.memo.hits"] = hits / nOps
	rc.layer["market.memo.misses"] = misses / nOps
	if hits+misses > 0 {
		rc.layer["market.memo.hit_ratio"] = hits / (hits + misses)
	}
	rc.layer["approx.solve_all.calls"] = float64(after.Cache.WholeVectorSolves-before.Cache.WholeVectorSolves) / nOps
	rc.layer["approx.prune.mass"] = (after.Pruning.TruncatedMass - before.Pruning.TruncatedMass) / nOps
	rc.layer["approx.prune.joints"] = float64(after.Pruning.TruncatedJoints-before.Pruning.TruncatedJoints) / nOps

	var solves []float64
	var warm1 [2]uint64
	for _, st := range a.stacks {
		solves = append(solves, st.solve.take()...)
		ws := st.warm.Stats()
		warm1[0] += ws.Hits
		warm1[1] += ws.Misses
	}
	spans := a.tr.snapshot()
	if n := float64(a.ls.n); n > 0 {
		rc.layer["market.game.rounds"] = float64(a.ls.rounds) / n
		rc.layer["market.game.evals"] = float64(a.ls.evals) / n
		rc.layer["approx.warm.hits"] = float64(warm1[0]-warm0[0]) / n
		rc.layer["approx.warm.misses"] = float64(warm1[1]-warm0[1]) / n
	}
	rc.layer["serve.overhead_p50_ms"] = median(a.ls.overhead) * 1e3
	rc.layer["spec.resolve_us"] = median(a.ls.resolve) * 1e6
	rc.layer["core.advise_p50_ms"] = median(a.ls.advise) * 1e3
	rc.layer["market.game_ms"] = median(durations(spans, "market.game")) * 1e3
	rc.layer["market.game.self_ms"] = median(selfDurations(spans, "market.game")) * 1e3
	rc.layer["market.eval_us"] = median(durations(spans, "market.eval")) * 1e6
	rc.layer["approx.solve_all_p50_ms"] = median(solves) * 1e3
	rc.layer["approx.solve_all_max_ms"] = percentile(solves, 1) * 1e3
	rc.samples["in_process_ops"] = a.ls.n
	rc.samples["traced_solves"] = len(solves)
	return rc.finishTrace("advise-warm", a.tr, traced)
}
