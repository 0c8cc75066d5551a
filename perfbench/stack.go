package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/market"
)

// boundary times every call crossing one evaluator boundary of the market
// stack. When span is set, each call is also recorded as a span whose
// parent is the game currently running on the stack.
type boundary struct {
	mu   sync.Mutex
	durs []float64 // seconds, guarded by mu

	span  string // span name; "" records no spans
	layer string
	tr    *tracer
	game  *atomic.Int64 // span id of the running game (0 = none)
	op    *atomic.Int64 // op id of the running game
}

// observe records one call that started at t0.
func (b *boundary) observe(t0 time.Time) {
	end := time.Now()
	b.mu.Lock()
	b.durs = append(b.durs, end.Sub(t0).Seconds())
	b.mu.Unlock()
	if b.span == "" || b.tr == nil {
		return
	}
	if game := b.game.Load(); game != 0 {
		b.tr.add(span{
			ID: b.tr.nextID.Add(1), Parent: game, Op: b.op.Load(),
			Name: b.span, Layer: b.layer, Start: b.tr.since(t0), End: b.tr.since(end),
		})
	}
}

// take returns and clears the recorded durations.
func (b *boundary) take() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.durs
	b.durs = nil
	return d
}

// The timing wrappers. Memoize and WithParticipation type-assert
// market.AllEvaluator on what they wrap, and serve reads
// market.CacheStatsReporter, so a wrapper must expose exactly the optional
// interfaces of the evaluator inside it: a plain Evaluator wrapper would
// silently switch the memo to per-target solves.
type timedEval struct {
	inner market.Evaluator
	b     *boundary
}

func (t timedEval) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	defer t.b.observe(time.Now())
	return t.inner.Evaluate(shares, target)
}

type timedAll struct {
	timedEval
	all market.AllEvaluator
}

func (t timedAll) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	defer t.b.observe(time.Now())
	return t.all.EvaluateAll(shares)
}

type timedStats struct {
	timedEval
	rep market.CacheStatsReporter
}

func (t timedStats) Stats() market.CacheStats { return t.rep.Stats() }

type timedAllStats struct {
	timedAll
	rep market.CacheStatsReporter
}

func (t timedAllStats) Stats() market.CacheStats { return t.rep.Stats() }

// wrap times ev at boundary b, keeping ev's optional interfaces.
func wrap(ev market.Evaluator, b *boundary) market.Evaluator {
	te := timedEval{inner: ev, b: b}
	all, isAll := ev.(market.AllEvaluator)
	rep, isRep := ev.(market.CacheStatsReporter)
	switch {
	case isAll && isRep:
		return timedAllStats{timedAll{te, all}, rep}
	case isAll:
		return timedAll{te, all}
	case isRep:
		return timedStats{te, rep}
	default:
		return te
	}
}

// tracedStack is the evaluator stack core.New builds, assembled from the
// same public constructors with a timing wrapper at each boundary:
// market.NewEvaluator (the approx solves) → WithParticipation → Memoize →
// market.Game.
type tracedStack struct {
	cfg  core.Config
	eval market.Evaluator
	warm *approx.WarmCache

	solve, participation, memo *boundary

	tr     *tracer
	gameID atomic.Int64
	opID   atomic.Int64
}

// newTracedStack mirrors core.New for cfg. With tr set, every call at the
// memo boundary is recorded as a span under the running game's span.
func newTracedStack(cfg core.Config, tr *tracer) *tracedStack {
	s := &tracedStack{cfg: cfg, tr: tr}
	s.solve = &boundary{}
	s.participation = &boundary{}
	s.memo = &boundary{span: "market.eval", layer: "market", tr: tr, game: &s.gameID, op: &s.opID}
	opts := market.EvaluatorOptions{
		Approx:     cfg.Approx,
		SimHorizon: cfg.SimHorizon,
		SimWarmup:  cfg.SimWarmup,
		SimSeed:    cfg.SimSeed,
	}
	if opts.Approx.Warm == nil {
		opts.Approx.Warm = approx.NewWarmCache()
	}
	if opts.Approx.PruneStats == nil {
		opts.Approx.PruneStats = &approx.PruneCounter{}
	}
	s.warm = opts.Approx.Warm
	kind := cfg.Model
	if kind == 0 {
		kind = core.ModelApprox
	}
	mkEval := func(fed cloud.Federation) market.Evaluator {
		ev, err := market.NewEvaluator(kind, fed, opts)
		if err != nil {
			return market.EvaluatorFunc(func([]int, int) (cloud.Metrics, error) {
				return cloud.Metrics{}, err
			})
		}
		return wrap(ev, s.solve)
	}
	var inner market.Evaluator
	if cfg.AllowFreeRiding {
		inner = mkEval(cfg.Federation)
	} else {
		inner = wrap(market.WithParticipation(cfg.Federation, mkEval), s.participation)
	}
	s.eval = wrap(market.Memoize(inner), s.memo)
	return s
}

// stats returns the memo's lookup counters through the wrapper.
func (s *tracedStack) stats() market.CacheStats {
	if rep, ok := s.eval.(market.CacheStatsReporter); ok {
		return rep.Stats()
	}
	return market.CacheStats{}
}

// equilibrium plays the game at federation price cg the way
// core.Framework.AdviseAt does, inside a market.game span when traced.
// Only calls with a parent span are traced, so priming the stack records
// nothing. Calls must not overlap: the running game's span id lives on the
// stack.
func (s *tracedStack) equilibrium(ctx context.Context, cg float64, initials [][]int, alpha float64, op, parent int64) (*market.Outcome, error) {
	fed := s.cfg.Federation
	fed.FederationPrice = cg
	g := &market.Game{
		Federation:   fed,
		Evaluator:    s.eval,
		Gamma:        s.cfg.Gamma,
		TabuDistance: s.cfg.TabuDistance,
		MaxRounds:    s.cfg.MaxRounds,
		MaxShares:    s.cfg.MaxShares,
	}
	tr := s.tr
	if parent == 0 {
		tr = nil
	}
	sp := tr.begin("market.game", "market", op, parent)
	s.gameID.Store(sp.id())
	s.opID.Store(op)
	out, err := g.RunMultiStartContext(ctx, initials, alpha)
	sp.end()
	s.gameID.Store(0)
	return out, err
}
