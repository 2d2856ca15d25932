package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/obs"
	"twopage/internal/trace"
)

// span is one timed call into a layer, in nanoseconds since the traced
// run began. Submit is set for engine sections: when the section was
// handed to the pool, so Start-Submit is its queue wait.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Submit int64  `json:"submit_ns,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Its methods are safe
// for concurrent use, and a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// start opens a span and returns its id (0 for a nil tracer).
func (tr *tracer) start(name string, parent int) int { return tr.startSubmitted(name, parent, 0) }

func (tr *tracer) startSubmitted(name string, parent int, submit int64) int {
	if tr == nil {
		return 0
	}
	now := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Submit: submit, Start: now})
	return len(tr.spans)
}

func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	now := tr.now()
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

func (tr *tracer) get(id int) span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans[id-1]
}

func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spanReader records a span around every Read of the trace cursor it
// wraps, and forwards decode counters so results match an unwrapped run.
type spanReader struct {
	r      *trace.MapReader
	tr     *tracer
	parent int
}

func (s *spanReader) Read(batch []trace.Ref) (int, error) {
	id := s.tr.start("trace.Reader.Read", s.parent)
	n, err := s.r.Read(batch)
	s.tr.end(id)
	return n, err
}

func (s *spanReader) DecodeStats() trace.DecodeStats { return s.r.DecodeStats() }

// traced runs a workload's traced mode and writes its spans.
func traced(ctx context.Context, cfg config, b bench, t *tally, log io.Writer) (map[string]float64, int, error) {
	tr := newTracer()
	m, reps, err := b.trace(ctx, tr, t, time.Duration(cfg.seconds*float64(time.Second)), log)
	if err != nil {
		return nil, 0, err
	}
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(log, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	return m, reps, nil
}

// buildOnce builds the workload's input once and times its generator,
// for the traced modes, which report no set-up time.
func buildOnce(ctx context.Context, cfg config, specName string) (*trace.File, float64, error) {
	f, _, err := buildTimed(ctx, cfg, specName, nil)
	if err != nil {
		return nil, 0, err
	}
	spec, err := loadSpec(specName, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	var gens []float64
	for i := 0; i < 3; i++ {
		ns, err := timeGenerate(ctx, specName, spec, cfg.refs)
		if err != nil {
			return nil, 0, err
		}
		gens = append(gens, ns)
	}
	return f, median(gens), nil
}

// ladder times each rung of s over f, interleaving the rungs repetition
// by repetition and rotating which runs first, until the budget is
// spent. It returns every rung's ns/ref and the top rung's last result,
// which chk checks.
func ladder(ctx context.Context, s stack, f *trace.File, budget time.Duration, chk func(*core.Result) error, t *tally) ([numRungs]float64, *core.Result, int, error) {
	var samples [numRungs][]float64
	var top *core.Result
	deadline := time.Now().Add(budget)
	reps := 0
	for ; reps == 0 || time.Now().Before(deadline); reps++ {
		for k := 0; k < numRungs; k++ {
			rung := (reps + k) % numRungs
			runtime.GC()
			ns, res, err := timeRung(ctx, s, f, rung)
			if err != nil {
				return [numRungs]float64{}, nil, 0, err
			}
			if rung == rungTop {
				t.record("ladder top rung", chk(res))
				top = res
			}
			samples[rung] = append(samples[rung], ns)
		}
	}
	var out [numRungs]float64
	for i := range samples {
		out[i] = fastTime(samples[i])
	}
	return out, top, reps, nil
}

func timeRung(ctx context.Context, s stack, f *trace.File, rung int) (float64, *core.Result, error) {
	if rung == rungDecode {
		ns, err := timeDrain(ctx, f.Reader())
		return ns, nil, err
	}
	sim, err := s.sim(rung)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	res, err := sim.Run(ctx, f.Reader())
	if err != nil {
		return 0, nil, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(f.Refs()), res, nil
}

// addLadder turns rung timings into per-layer costs: each layer's cost
// is its rung less the one below, so the layers sum to the full pass.
func addLadder(m map[string]float64, l [numRungs]float64, s stack, top *core.Result, log io.Writer) {
	refs := float64(top.Refs)
	layer := [numRungs]float64{l[rungDecode]}
	for r := rungPolicy; r < numRungs; r++ {
		layer[r] = l[r] - l[r-1]
	}
	m["trace.decode_ns_per_ref"] = layer[rungDecode]
	m["policy.assign_ns_per_ref"] = layer[rungPolicy]
	m["tlb.access_ns_per_ref"] = layer[rungTLB]
	if n := top.PageTable.Lookups; n > 0 {
		m["pagetable.ns_per_miss"] = layer[rungPageTable] * refs / float64(n)
	}
	switch s.top {
	case "wss":
		m["wss.observe_ns_per_ref"] = layer[rungTop]
	case "walk":
		if n := top.Walk.Walks; n > 0 {
			m["walk.ns_per_walk"] = layer[rungTop] * refs / float64(n)
		}
	}
	m["core.pass_ns_per_ref"] = l[rungTop]

	names := [numRungs]string{"trace decode", "+ policy.Assign", "+ TLB", "+ page table", "+ " + s.top}
	fmt.Fprintf(log, "stage ladder (%s, %d refs):\n%-18s %12s %12s\n", s.spec, top.Refs, "rung", "rung_ns/ref", "layer_ns/ref")
	sum := 0.0
	for r := range names {
		sum += layer[r]
		fmt.Fprintf(log, "%-18s %12.3f %12.3f\n", names[r], l[r], layer[r])
	}
	fmt.Fprintf(log, "%-18s %12.3f %12.3f\n", "layers sum", l[rungTop], sum)
}

// addCounts derives the per-layer ratios from deterministic counters.
func addCounts(m map[string]float64, c obs.Counters) {
	perM := func(n uint64) float64 {
		if c.Refs == 0 {
			return 0
		}
		return float64(n) * 1e6 / float64(c.Refs)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["policy.events_per_mref"] = perM(c.Promotions + c.Demotions + c.PromotionsSize2 + c.PromotionsSize3 + c.DemotionsSize2 + c.DemotionsSize3)
	m["tlb.hit_ratio"] = ratio(c.TLBHitsSmall+c.TLBHitsLarge+c.TLBHitsSize2+c.TLBHitsSize3, c.TLBAccesses)
	m["tlb.invalidations_per_mref"] = perM(c.TLBInvalidations)
	m["pagetable.faults_per_mref"] = perM(c.Faults)
	m["walk.pwc_hit_ratio"] = ratio(c.WalkPWCHits, c.WalkPWCHits+c.WalkPWCMisses)
	m["walk.mem_hit_ratio"] = ratio(c.WalkMemHits, c.WalkMemHits+c.WalkMemMisses)
}

// addResult adds a pass result's counters, and its walks' loads.
func addResult(m map[string]float64, res *core.Result) {
	addCounts(m, res.Counters)
	if w := res.Walk; w != nil && w.Walks > 0 {
		m["walk.loads_per_walk"] = float64(w.Loads()) / float64(w.Walks)
	}
}

// repFunc runs one repetition, as bench.rep does. compare times whole
// repetitions itself, so a traced repetition may return 0 for its time.
type repFunc func(ctx context.Context) (uint64, time.Duration, func() error, error)

// compare runs pairs of an untraced and a traced repetition of the same
// work for the budget, checking each; which of a pair runs first
// alternates. It returns how much slower the traced repetition of a
// pair ran, in percent: the median over the pairs whose halves both
// passed. The halves of a pair run back to back, so a slow phase of the
// host mostly slows both. It also returns the bytes allocated per
// reference by an untraced repetition, and the repetitions that passed.
func compare(ctx context.Context, budget time.Duration, t *tally, plain, traced repFunc) (float64, float64, int) {
	var ratios []float64
	alloc := 0.0
	passed := 0
	runPlain := func() (float64, bool) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, refs, ok := timed(ctx, t, "untraced repetition", plain)
		runtime.ReadMemStats(&after)
		if ok {
			passed++
			alloc = float64(after.TotalAlloc-before.TotalAlloc) / float64(refs)
		}
		return d, ok
	}
	runTraced := func() (float64, bool) {
		runtime.GC()
		d, _, ok := timed(ctx, t, "traced repetition", traced)
		if ok {
			passed++
		}
		return d, ok
	}
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var p, q float64
		var pOK, qOK bool
		if i%2 == 0 {
			p, pOK = runPlain()
			q, qOK = runTraced()
		} else {
			q, qOK = runTraced()
			p, pOK = runPlain()
		}
		if pOK && qOK {
			ratios = append(ratios, q/p)
		}
	}
	if len(ratios) == 0 {
		return 0, alloc, passed
	}
	return (median(ratios) - 1) * 100, alloc, passed
}

// timed runs one repetition and its check, counting it in t.
func timed(ctx context.Context, t *tally, what string, rep repFunc) (float64, uint64, bool) {
	start := time.Now()
	refs, _, check, err := rep(ctx)
	d := time.Since(start).Seconds()
	if err == nil {
		err = check()
	}
	return d, refs, t.record(what, err)
}

// trace is pass-two's and pass-walk-random's traced mode: the stage
// ladder for most of the budget, then the full pass with and without
// spans around every trace Read and the Run itself.
func (b *passBench) trace(ctx context.Context, tr *tracer, t *tally, budget time.Duration, log io.Writer) (map[string]float64, int, error) {
	f, gen, err := buildOnce(ctx, b.cfg, b.stack.spec)
	if err != nil {
		return nil, 0, err
	}
	b.file = f
	m := map[string]float64{"workload.gen_ns_per_ref": gen, "trace.bytes_per_ref": f.BytesPerRef()}
	l, top, reps, err := ladder(ctx, b.stack, f, budget*6/10, b.checkPass, t)
	if err != nil {
		return nil, 0, err
	}
	addLadder(m, l, b.stack, top, log)
	addResult(m, top)
	pass := 0
	over, alloc, n := compare(ctx, budget*4/10, t, b.rep, func(ctx context.Context) (uint64, time.Duration, func() error, error) {
		pass++
		id := tr.start(fmt.Sprintf("%s pass %d", b.cfg.workload, pass), 0)
		defer tr.end(id)
		sim, err := b.stack.full()
		if err != nil {
			return 0, 0, nil, err
		}
		run := tr.start("core.Simulator.Run", id)
		res, err := sim.Run(ctx, &spanReader{r: f.Reader(), tr: tr, parent: run})
		tr.end(run)
		if err != nil {
			return 0, 0, nil, err
		}
		return res.Refs, 0, func() error { return b.checkPass(res) }, nil
	})
	m["bench.trace_overhead_pct"] = over
	m["core.alloc_bytes_per_ref"] = alloc
	return m, reps + n, nil
}

// shardSpans is what one traced sharded pass measured.
type shardSpans struct {
	queue, imbalance, merge float64 // ms, max/mean section time, ms
	warmNs, warmRefs        float64
}

// tracedShards rebuilds engine.RunSharded from its public parts, with a
// span around each section (carrying its submission time), each Warm
// and Run, every trace Read and the merge.
func (b *shardBench) tracedShards(ctx context.Context, tr *tracer, parent int) (*core.Result, shardSpans, error) {
	f := b.file
	n := min(shards, f.Blocks())
	type part struct {
		res      *core.Result
		id, warm int
		warmRefs uint64
	}
	submit := tr.now()
	parts, err := engine.MapSections(engine.New(shards), ctx, f, n, b.cfg.workload, func(ctx context.Context, r *trace.MapReader, section int) (part, error) {
		p := part{id: tr.startSubmitted(fmt.Sprintf("engine section %d", section), parent, submit)}
		defer tr.end(p.id)
		sim, err := b.stack.full()
		if err != nil {
			return p, err
		}
		if section > 0 && b.plan.Warmup > 0 {
			pre := f.Preroll(section, n, b.plan.Warmup)
			p.warm, p.warmRefs = tr.start("core.Simulator.Warm", p.id), pre.Refs()
			err := sim.Warm(ctx, &spanReader{r: pre, tr: tr, parent: p.warm})
			tr.end(p.warm)
			if err != nil {
				return p, err
			}
		}
		run := tr.start("core.Simulator.Run", p.id)
		p.res, err = sim.Run(ctx, &spanReader{r: r, tr: tr, parent: run})
		tr.end(run)
		return p, err
	}).Wait(ctx)
	if err != nil {
		return nil, shardSpans{}, err
	}
	results := make([]*core.Result, len(parts))
	var ss shardSpans
	var maxSec, sumSec float64
	for i, p := range parts {
		results[i] = p.res
		sec := tr.get(p.id)
		ss.queue += float64(sec.Start-sec.Submit) / 1e6
		d := float64(sec.dur())
		sumSec += d
		maxSec = max(maxSec, d)
		if p.warm != 0 {
			ss.warmNs += float64(tr.get(p.warm).dur())
			ss.warmRefs += float64(p.warmRefs)
		}
	}
	ss.imbalance = maxSec / (sumSec / float64(len(parts)))
	mid := tr.start("core.MergeResults", parent)
	merged := core.MergeResults(results)
	tr.end(mid)
	ss.merge = ms(tr.get(mid).dur())
	return merged, ss, nil
}

// trace is pass-two-sharded's traced mode: the stage ladder of its
// serial configuration, then RunSharded against its traced rebuild,
// whose merged counters must equal RunSharded's exactly.
func (b *shardBench) trace(ctx context.Context, tr *tracer, t *tally, budget time.Duration, log io.Writer) (map[string]float64, int, error) {
	f, gen, err := buildOnce(ctx, b.cfg, b.stack.spec)
	if err != nil {
		return nil, 0, err
	}
	b.file = f
	if err := b.runSerial(ctx); err != nil {
		return nil, 0, err
	}
	m := map[string]float64{"workload.gen_ns_per_ref": gen, "trace.bytes_per_ref": f.BytesPerRef()}
	serialDigest := digest(b.serial)
	l, top, reps, err := ladder(ctx, b.stack, f, budget/2, func(res *core.Result) error {
		if d := digest(res); d != serialDigest {
			return fmt.Errorf("serial counter digest %s, want %s", d, serialDigest)
		}
		return nil
	}, t)
	if err != nil {
		return nil, 0, err
	}
	addLadder(m, l, b.stack, top, log)

	var all []shardSpans
	var merged *core.Result
	pass := 0
	over, alloc, n := compare(ctx, budget/2, t, b.rep, func(ctx context.Context) (uint64, time.Duration, func() error, error) {
		pass++
		id := tr.start(fmt.Sprintf("%s pass %d", b.cfg.workload, pass), 0)
		res, ss, err := b.tracedShards(ctx, tr, id)
		tr.end(id)
		if err != nil {
			return 0, 0, nil, err
		}
		all = append(all, ss)
		merged = res
		return res.Refs, 0, func() error { return b.checkMerged(res) }, nil
	})
	if merged != nil {
		addResult(m, merged)
	}
	pick := func(f func(shardSpans) float64) float64 {
		xs := make([]float64, len(all))
		for i, s := range all {
			xs[i] = f(s)
		}
		return median(xs)
	}
	m["engine.queue_wait_ms"] = pick(func(s shardSpans) float64 { return s.queue })
	m["engine.shard_imbalance"] = pick(func(s shardSpans) float64 { return s.imbalance })
	m["core.merge_ms"] = pick(func(s shardSpans) float64 { return s.merge })
	m["core.warm_ns_per_ref"] = pick(func(s shardSpans) float64 { return s.warmNs / max(s.warmRefs, 1) })
	if len(all) > 0 {
		w := all[0].warmRefs
		m["engine.warmup_ref_share"] = w / (w + float64(f.Refs()))
	}
	m["bench.trace_overhead_pct"] = over
	m["core.alloc_bytes_per_ref"] = alloc
	return m, reps + n, nil
}

// trace is suite-golden's traced mode: whole suites with and without a
// span around each experiment, each suite on one fresh shared engine.
func (b *suiteBench) trace(ctx context.Context, tr *tracer, t *tally, budget time.Duration, _ io.Writer) (map[string]float64, int, error) {
	if _, err := b.setup(ctx); err != nil {
		return nil, 0, err
	}
	gen, err := b.genNsPerRef(ctx)
	if err != nil {
		return nil, 0, err
	}
	m := map[string]float64{"workload.gen_ns_per_ref": gen}
	times := make([][]float64, len(b.ids)) // per experiment, over checked suites
	var last *suiteRun
	pass := 0
	over, alloc, n := compare(ctx, budget, t, b.rep, func(ctx context.Context) (uint64, time.Duration, func() error, error) {
		pass++
		id := tr.start(fmt.Sprintf("suite-golden pass %d", pass), 0)
		run, err := b.runSuite(ctx, tr, id)
		tr.end(id)
		if err != nil {
			return 0, 0, nil, err
		}
		last = run
		refs := run.col.Totals().Refs
		return refs, 0, func() error {
			err := b.check(run, refs)
			if err == nil {
				for i, d := range run.times {
					times[i] = append(times[i], d.Seconds())
				}
			}
			return err
		}, nil
	})
	for i, id := range b.ids {
		m[experimentMetric(id)] = fastTime(times[i])
	}
	if last != nil {
		addCounts(m, last.col.Totals())
		if st := last.eng.Stats(); st.Submitted > 0 {
			m["engine.memo_hit_ratio"] = float64(st.CacheHits) / float64(st.Submitted)
		}
	}
	m["bench.trace_overhead_pct"] = over
	m["core.alloc_bytes_per_ref"] = alloc
	return m, n, nil
}

// genNsPerRef times the suite's program generators at their golden
// lengths: the median over three rounds of ns per generated reference.
func (b *suiteBench) genNsPerRef(ctx context.Context) (float64, error) {
	var rounds []float64
	for i := 0; i < 3; i++ {
		d, n, err := generateSuite(ctx)
		if err != nil {
			return 0, err
		}
		rounds = append(rounds, float64(d.Nanoseconds())/float64(n))
	}
	return median(rounds), nil
}
