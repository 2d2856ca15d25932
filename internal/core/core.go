// Package core wires the pieces together: it drives a reference stream
// through a page-size assignment policy and one or more TLB models,
// optionally tracking the policy's working-set size (exactly for the
// dynamic two-page scheme, sampled for any multi-size policy), and
// reports the paper's metrics (CPI_TLB, MPI, miss ratio).
//
// This is the package the examples and the experiment harness build on.
// Typical use:
//
//	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(1_000_000))
//	sim := core.NewSimulator(pol, tlb.NewFullyAssoc(16))
//	res, err := sim.Run(ctx, workload.MustNew("matrix300", 0))
//	fmt.Println(res.TLBs[0].CPITLB)
//
// Simulating several TLB configurations against the same policy shares
// one trace-generation and policy pass, mirroring the paper's use of
// all-associativity simulation to evaluate many configurations at once
// (Section 3.3); for sweeps over associativity itself see
// internal/allassoc.
package core

import (
	"context"
	"fmt"
	"slices"

	"twopage/internal/addr"
	"twopage/internal/metrics"
	"twopage/internal/obs"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/wss"
)

// TLBResult holds one simulated TLB's counters and derived metrics.
type TLBResult struct {
	Name        string    // TLB organization, e.g. "16-entry 2-way (exact index)"
	Stats       tlb.Stats // raw counters
	MissPenalty float64   // cycles per miss used for CPI
	MPI         float64   // misses per instruction
	CPITLB      float64   // MPI × MissPenalty (the paper's headline metric)
	MissRatio   float64   // misses per reference
}

// Result is the outcome of one simulation pass.
type Result struct {
	Policy string // policy name, e.g. "4KB" or "4KB/32KB"
	Refs   uint64 // references simulated
	Instrs uint64 // instruction fetches (for per-instruction metrics)
	TLBs   []TLBResult

	// WSS is the policy's average working-set size, set only when the
	// simulator was built with WithWSS (exact, two-page scheme) or
	// WithSampledWSS (sampled, any multi-size policy).
	WSS *wss.Result
	// StaticWSS holds the average working set of each static page size
	// of WithStaticWSS, in the order given; nil without it.
	StaticWSS []wss.Result
	// Footprint lists the distinct pages of the first WithStaticWSS
	// size in ascending order, StaticWSS[0].Pages of them: the
	// stream's profile. Nil without WithStaticWSS.
	Footprint []addr.PN
	static    *wss.Static // a section's calculator, which MergeResults splices
	// PolicyStats holds promotion/demotion counters for the two-size
	// policy (TwoSize).
	PolicyStats *policy.TwoSizeStats
	// LadderStats holds per-class counters for N-level ladder and NAPOT
	// policies (nil for two-size and single-size runs).
	LadderStats *policy.LadderStats

	// PageTable holds the page-table shadow's counters, set only when
	// the simulator was built with WithPageTable.
	PageTable *pagetable.Stats
	// PTWalkCycles is the total modelled cost of the shadow's software
	// walks (zero without WithPageTable). Under WithWalkModel it is the
	// walker's integer cycle total, exactly.
	PTWalkCycles float64

	// Walk holds the modeled page-walk counters, set only when the
	// simulator was built with WithWalkModel. When present, the first
	// TLB's MissPenalty and CPITLB are emergent — recomputed from these
	// counters instead of the flat penalty constant.
	Walk *walk.Stats

	// Memory holds the memory stage's counters, set only when the
	// simulator was built with WithMemory; PageTable then holds the
	// stage's page-table counters.
	Memory *MemoryStats

	// Counters is the pass's run-report block (internal/obs): the TLB
	// split, policy transitions, and any trace-decode work, assembled
	// once after the drain loop completes.
	Counters obs.Counters
}

// RPI returns references per instruction, or 0 without instructions.
func (r *Result) RPI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Refs) / float64(r.Instrs)
}

// Simulator drives references through a policy and a set of TLBs.
type Simulator struct {
	pol         policy.Assigner
	tlbs        []tlb.TLB
	missPenalty float64
	wssCalc     *wss.TwoSize
	sampled     *wss.Sampled     // sampled working set (WithSampledWSS)
	classes     addr.SizeClasses // hierarchy of a MultiSize policy (zero for single-size)
	pt          *ptShadow        // page-table shadow (WithPageTable)
	walker      *walk.Walker     // modeled radix walk (WithWalkModel)
	mem         *memStage        // demand paging and replacement (WithMemory)
	static      *wss.Static      // static page sizes' working sets (WithStaticWSS)
	section     bool             // a section's pass (Section): its Result keeps static for MergeResults
	err         error            // first configuration error, returned by Warm and Run
	warm        *Result          // counters at the end of Warm, subtracted by Run
	ran         bool             // Run or RunMany has started on the simulator
}

// Option configures a Simulator. An option that does not fit the
// simulator's policy or TLBs records a configuration error, which Warm
// and Run return; the first such error wins.
type Option func(*Simulator)

// fail records a configuration error unless an earlier one is pending.
func (s *Simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithWSS attaches a two-page working-set calculator. Only valid when
// the policy is a *policy.TwoSize that has assigned no reference and
// has no calculator yet (wss.NewTwoSize's requirements): any other
// policy, a second WithWSS, or a second simulator with WithWSS on the
// same policy is a configuration error. For static page sizes use
// WithStaticWSS.
func WithWSS() Option {
	return func(s *Simulator) {
		pol, ok := s.pol.(*policy.TwoSize)
		switch {
		case !ok:
			s.fail(fmt.Errorf("core: WithWSS requires a TwoSize policy, got %q", s.pol.Name()))
		case pol.Window().OnBlockEnter != nil || pol.Window().OnBlockLeave != nil:
			s.fail(fmt.Errorf("core: WithWSS: policy %q already has a working-set calculator", pol.Name()))
		case pol.Stats().Refs > 0:
			s.fail(fmt.Errorf("core: WithWSS: policy %q has already assigned references", pol.Name()))
		default:
			s.wssCalc = wss.NewTwoSize(pol)
		}
	}
}

// WithSampledWSS attaches the sampled working-set calculator
// (wss.Sampled) over the last T references: every 256 references it
// sizes the working set from the policy's current mapping, reading the
// policy's own window when that window has length T. It serves any
// MultiSize policy, including the windowless Napot and Region. A
// single-size policy, a T the window cannot hold, or a simulator that
// also has WithWSS is a configuration error, and so is a later Warm:
// samples fall on every 256th reference of the whole stream, which a
// warmed-up section cannot line up with.
func WithSampledWSS(T int) Option {
	return func(s *Simulator) {
		pol, ok := s.pol.(policy.MultiSize)
		if !ok {
			s.fail(fmt.Errorf("core: WithSampledWSS requires a MultiSize policy, got %q", s.pol.Name()))
			return
		}
		calc, err := wss.NewSampled(pol, T, 0)
		if err != nil {
			s.fail(fmt.Errorf("core: WithSampledWSS: %w", err))
			return
		}
		s.sampled = calc
	}
}

// WithStaticWSS attaches the static working-set calculator
// (wss.Static) over window T for the given page sizes, which
// Result.StaticWSS reports in the order given (the Section 4 metric).
// It observes addresses only, so it fits any policy and TLBs; the
// static pass of its own is a simulator with a 4KB Single policy and
// no TLBs. A zero T, no sizes or an invalid size is a configuration
// error, and so is a later Warm: the averages cover the whole stream.
// MergeResults merges the sections of a stream exactly when each
// section's simulator was told where it starts (Section).
func WithStaticWSS(T uint64, sizes ...addr.PageSize) Option {
	return func(s *Simulator) {
		if T == 0 {
			s.fail(fmt.Errorf("core: WithStaticWSS: window T must be positive"))
			return
		}
		if len(sizes) == 0 {
			s.fail(fmt.Errorf("core: WithStaticWSS: need at least one page size"))
			return
		}
		shifts := make([]uint, len(sizes))
		for i, size := range sizes {
			if !size.Valid() {
				s.fail(fmt.Errorf("core: WithStaticWSS: invalid page size %d", size))
				return
			}
			shifts[i] = size.Shift()
		}
		s.static = wss.NewStatic(T, 0, shifts...)
	}
}

// shadowErr reports why the page-table shadow cannot attach: it needs a
// MultiSize policy's hierarchy, and a first TLB whose misses it walks.
func (s *Simulator) shadowErr(option string) error {
	if s.classes.N() == 0 {
		return fmt.Errorf("core: %s requires a MultiSize policy, got %q", option, s.pol.Name())
	}
	if len(s.tlbs) == 0 {
		return fmt.Errorf("core: %s requires at least one TLB", option)
	}
	return nil
}

// WithPageTable attaches a software page-table shadow: every miss of
// the first TLB walks an NTable kept consistent with the policy's
// promotion/demotion decisions (demand-mapping unmapped pages from a
// deterministic bump frame allocator), charging the pagetable package's
// handler cost model per walk. Requires a MultiSize policy and at least
// one TLB; anything else is a configuration error. Results gain
// PageTable stats and PTWalkCycles; the shadow's tables are plain
// shard-local state, so sharded runs merge it like every other counter
// block.
func WithPageTable() Option {
	return func(s *Simulator) {
		if err := s.shadowErr("WithPageTable"); err != nil {
			s.fail(err)
			return
		}
		s.pt = newPTShadow(s.classes)
	}
}

// WithWalkModel replaces the page-table shadow's flat per-walk charge
// with the modeled multi-level radix walk of internal/walk: every
// first-TLB miss descends the shadow's table, probing the MMU
// page-walk caches and charging each performed level load through the
// memory-side cache model. CPI_TLB becomes emergent — total walk
// cycles over instructions — instead of MPI × penalty, and the first
// TLB's reported MissPenalty is the measured cycles-per-walk.
//
// The option implies WithPageTable (attaching the shadow if absent)
// and therefore shares its requirements: a MultiSize policy and at
// least one TLB. A zero cfg.Classes defaults to the policy's
// hierarchy; a zero cfg.BaseCycles to the multi-size handler base.
// Classes that disagree with the policy's, or a geometry walk.New
// rejects, are configuration errors. Promotions and demotions flush
// the PWCs (the shootdown a remap forces); walker state is shard-local
// and its counters are integers, so sharded runs merge exactly.
func WithWalkModel(cfg walk.Config) Option {
	return func(s *Simulator) {
		if err := s.shadowErr("WithWalkModel"); err != nil {
			s.fail(err)
			return
		}
		if cfg.Classes.N() == 0 {
			cfg.Classes = s.classes
		} else if cfg.Classes != s.classes {
			s.fail(fmt.Errorf("core: WithWalkModel: walk classes %v disagree with policy classes %v", cfg.Classes, s.classes))
			return
		}
		w, err := walk.New(cfg)
		if err != nil {
			s.fail(fmt.Errorf("core: WithWalkModel: %w", err))
			return
		}
		if s.pt == nil {
			s.pt = newPTShadow(s.classes)
		}
		s.walker = w
	}
}

// NewSimulator builds a simulator for the policy and TLBs. The TLBs are
// all driven by the same policy decisions in a single pass. A
// multi-size policy with n classes charges metrics.MissPenaltyN(n) per
// miss — 25 cycles for two sizes — and everything else
// metrics.MissPenaltySingle, per Sections 2.3/3.2.
func NewSimulator(pol policy.Assigner, tlbs []tlb.TLB, opts ...Option) *Simulator {
	s := &Simulator{pol: pol, tlbs: tlbs}
	if mp, ok := pol.(policy.MultiSize); ok {
		s.classes = mp.SizeClasses()
		s.missPenalty = metrics.MissPenaltyN(s.classes.N())
	} else {
		s.missPenalty = metrics.MissPenaltySingle
	}
	for _, o := range opts {
		o(s)
	}
	if s.mem != nil && s.pt != nil {
		s.fail(fmt.Errorf("core: WithMemory does not combine with WithPageTable or WithWalkModel"))
	}
	if s.wssCalc != nil && s.sampled != nil {
		s.fail(fmt.Errorf("core: WithWSS does not combine with WithSampledWSS"))
	}
	return s
}

// Section tells the simulator that its stream is the section of a
// longer one that begins at reference start. engine.RunSharded calls
// it before Warm and Run. Only the static working sets depend on where
// a section begins: their calculator is rebuilt with global timestamps
// from start, and the pass's Result keeps it, so MergeResults can
// splice the sections exactly (wss.MergeStatic). Nothing else changes.
func (s *Simulator) Section(start uint64) {
	if s.static != nil {
		s.static = s.static.At(start)
	}
	s.section = true
}

// Err returns the simulator's first configuration error, nil if it has
// none: the error Warm, Run and RunMany would return before reading a
// reference.
func (s *Simulator) Err() error { return s.err }

// Warm replays a reference stream to build simulator state — TLB
// contents, policy window and mapped regions, page-table shadow, the
// two-page WSS calculator's incremental split — without contributing to
// the metrics Run will report. At the end of the stream every counter
// is snapshotted; Run subtracts the snapshot, so the reported counts
// cover exactly the post-warm-up references (integer subtraction,
// exact). Shard workers call Warm with a Preroll reader before running
// their section; the warm-up stream must immediately precede Run's.
//
// Warm may be called once, before Run; a second Warm, or a Warm after
// Run, is an error. The working-set averages are untouched by design:
// WSS samples start at the first Run reference. A simulator with a
// memory stage, a sampled working set or static working sets cannot
// warm up (see WithMemory, WithSampledWSS and WithStaticWSS).
func (s *Simulator) Warm(ctx context.Context, r trace.Reader) error {
	if s.mem != nil {
		s.fail(fmt.Errorf("core: Warm is not supported with WithMemory"))
	}
	if s.sampled != nil {
		s.fail(fmt.Errorf("core: Warm is not supported with WithSampledWSS"))
	}
	if s.static != nil {
		s.fail(fmt.Errorf("core: Warm is not supported with WithStaticWSS"))
	}
	switch {
	case s.err != nil:
		return s.err
	case s.ran:
		return fmt.Errorf("core: Warm called after Run")
	case s.warm != nil:
		return fmt.Errorf("core: Warm called twice")
	}
	if _, _, err := drive(ctx, r, []*Simulator{s}, true); err != nil {
		return fmt.Errorf("core: warm-up failed: %w", err)
	}
	s.warm = s.counts()
	return nil
}

// Run consumes the reference stream to completion and returns metrics.
// A Simulator is single-use: a second Run is an error. It is RunMany of
// s alone.
//
// Cancellation is checked between batches: when ctx is canceled the
// simulation stops mid-trace and Run returns the context's error.
func (s *Simulator) Run(ctx context.Context, r trace.Reader) (*Result, error) {
	res, err := RunMany(ctx, r, []*Simulator{s})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunMany reads r once and hands each batch of references to every
// simulator in turn, so simulators of different policies, hierarchies
// or stages share one generation or decode of a stream (the paper's
// one pass per trace, Section 3.3). Simulators never interact: each
// result equals, field for field, the Result its simulator's own Run
// over the same stream returns, the reader's decode counters included.
// Each simulator is single-use, as under Run, and appears once.
//
// A configuration error in any simulator, a simulator that already ran
// or one listed twice fails RunMany before it reads a reference.
// Cancellation is checked between batches, as in Run.
func RunMany(ctx context.Context, r trace.Reader, sims []*Simulator) ([]*Result, error) {
	for i, s := range sims {
		switch {
		case s.err != nil:
			return nil, s.err
		case s.ran:
			return nil, fmt.Errorf("core: simulator %d already ran", i)
		case slices.Contains(sims[:i], s):
			return nil, fmt.Errorf("core: simulator %d is listed twice", i)
		}
	}
	for _, s := range sims {
		s.ran = true
	}
	refs, instrs, err := drive(ctx, r, sims, false)
	if err != nil {
		return nil, fmt.Errorf("core: simulation failed: %w", err)
	}
	decode := DecodeCounters(r)
	out := make([]*Result, len(sims))
	for i, s := range sims {
		out[i] = s.result(refs, instrs, decode)
	}
	return out, nil
}

// countInstrs returns the batch's instruction fetches. A loop of its own
// counts them once for every simulator of a pass, and keeps the count
// out of the per-reference loop, where it would live across the
// policy's call.
func countInstrs(batch []trace.Ref) (n uint64) {
	for i := range batch {
		if batch[i].Kind == trace.Instr {
			n++
		}
	}
	return n
}

// result assembles the Result of a pass that drove refs references,
// instrs of them instruction fetches, through s.
func (s *Simulator) result(refs, instrs uint64, decode obs.Counters) *Result {
	out := s.counts()
	if s.warm != nil {
		out.sub(s.warm)
	}
	out.Policy, out.Refs, out.Instrs = s.pol.Name(), refs, instrs
	switch {
	case s.wssCalc != nil:
		res := s.wssCalc.Result()
		out.WSS = &res
	case s.sampled != nil:
		res := s.sampled.Result()
		out.WSS = &res
	}
	if s.static != nil {
		out.StaticWSS, out.Footprint = s.static.Finish(), s.static.Pages(0)
		if s.section {
			out.static = s.static
		}
	}
	out.finish(decode)
	return out
}

// step is the fused per-reference loop, which Warm, Run and RunMany run
// while their pass holds no helper (pipeline.go): for each reference of
// the batch the policy assigns a page, then the TLBs (or the page-table
// shadow, which drives them and the walk model, or the memory stage)
// look it up, then the WSS calculator observes the assignment — without
// sampling during warm-up — or the sampled calculator steps. The static
// working sets step after the batch.
//
// A pass holding a helper runs the same work in three stages, assign,
// probe and resolve, which the pass's goroutine and its helper share.
// They are written apart from step because one loop serving all of
// them cost the fused pass 7–9% (DESIGN.md §3.3): a change to the work
// of one must be made to the others, and TestFusedAndPipelinedAgree
// requires the same Results of both.
//
//paperlint:hot
func (s *Simulator) step(batch []trace.Ref, warm bool) {
	for _, ref := range batch {
		res := s.pol.Assign(ref.Addr)
		if res.Event != policy.EventNone {
			s.applyEvent(res) //paperlint:ignore hotalloc event path: page-table node alloc/free runs per promotion/demotion, not per reference
		}
		if s.pt != nil {
			s.ptStep(ref.Addr, res)
		} else if s.mem != nil {
			s.mem.step(ref.Addr, res.Page)
		} else {
			for _, t := range s.tlbs {
				t.Access(ref.Addr, res.Page)
			}
		}
		if s.wssCalc != nil {
			if warm {
				s.wssCalc.ObserveWarm(res)
			} else {
				s.wssCalc.Observe(res)
			}
		}
		if s.sampled != nil {
			s.sampled.Step(ref.Addr)
		}
	}
	s.stepStatic(batch)
}

// assign is a staged pass's assignment stage, which reads and writes
// only policy state: the policy assigns each reference a page, whose
// shift it codes in code, with codeMove and the assignment appended to
// moves when it carries a transition; then the WSS calculator observes
// the assignment or the sampled calculator steps. It returns moves.
//
//paperlint:hot
func (s *Simulator) assign(batch []trace.Ref, code []byte, moves []policy.Result, warm bool) []policy.Result {
	code = code[:len(batch)]
	for i, ref := range batch {
		res := s.pol.Assign(ref.Addr)
		c := byte(res.Page.Shift)
		if res.Event != policy.EventNone {
			c |= codeMove
			moves = append(moves, res) //paperlint:ignore hotalloc moves keeps its capacity from batch to batch; it grows only past the most transitions a batch has carried
		}
		code[i] = c
		if s.wssCalc != nil {
			if warm {
				s.wssCalc.ObserveWarm(res)
			} else {
				s.wssCalc.Observe(res)
			}
		}
		if s.sampled != nil {
			s.sampled.Step(ref.Addr)
		}
	}
	return moves
}

// probe is a staged pass's probe stage, which reads only the codes and
// moves assign wrote and the TLBs' state: each transition's TLB
// invalidations, then every TLB looks up the reference's page, rebuilt
// from its address and coded shift. With a page-table shadow, a miss of
// the first TLB is coded codeMiss for resolve to walk. A memory stage
// probes its TLBs itself, in resolve.
//
//paperlint:hot
func (s *Simulator) probe(batch []trace.Ref, code []byte, moves []policy.Result) {
	if s.mem != nil || len(s.tlbs) == 0 {
		return
	}
	code = code[:len(batch)]
	walks := s.pt != nil
	m := 0
	for i, ref := range batch {
		c := code[i]
		if c&codeMove != 0 {
			s.invalidate(moves[m])
			m++
		}
		p := codedPage(ref.Addr, c)
		if !s.tlbs[0].Access(ref.Addr, p) && walks {
			code[i] = c | codeMiss
		}
		for _, t := range s.tlbs[1:] {
			t.Access(ref.Addr, p)
		}
	}
}

// resolve is a staged pass's resolve stage, which reads only the codes,
// moves and misses of the stages before it and its own state: the
// page-table shadow follows each transition (and the walk model flushes
// its PWCs) and walks each coded miss, or the memory stage carries out
// each transition and translates each reference; then the static
// working sets step.
//
//paperlint:hot
func (s *Simulator) resolve(batch []trace.Ref, code []byte, moves []policy.Result) {
	code = code[:len(batch)]
	m := 0
	switch {
	case s.pt != nil:
		for i, c := range code {
			if c&codeMove != 0 {
				s.remap(moves[m]) //paperlint:ignore hotalloc event path: page-table node alloc/free runs per promotion/demotion, not per reference
				m++
			}
			if c&codeMiss != 0 {
				s.ptMiss(batch[i].Addr, codedPage(batch[i].Addr, c))
			}
		}
	case s.mem != nil:
		for i, ref := range batch {
			c := code[i]
			if c&codeMove != 0 {
				s.mem.apply(moves[m]) //paperlint:ignore hotalloc event path: a remap allocates or frees frames per promotion/demotion, not per reference
				m++
			}
			s.mem.step(ref.Addr, codedPage(ref.Addr, c))
		}
	}
	s.stepStatic(batch)
}

// stepStatic steps the static working sets, which need no assignment,
// in a loop of their own, which costs a simulator without them one
// check per batch.
func (s *Simulator) stepStatic(batch []trace.Ref) {
	if s.static != nil {
		for _, ref := range batch {
			s.static.Step(ref.Addr)
		}
	}
}

// counts snapshots the simulator's raw counters into a Result: each
// TLB's stats, the policy's transition counters, the page-table
// shadow's and walker's totals, and the memory stage's block. Warm
// keeps one as the warm-up baseline; Run takes another and subtracts
// it.
func (s *Simulator) counts() *Result {
	out := &Result{}
	for _, t := range s.tlbs {
		out.TLBs = append(out.TLBs, TLBResult{Name: t.Name(), Stats: t.Stats(), MissPenalty: s.missPenalty})
	}
	switch pol := s.pol.(type) {
	case interface{ Stats() policy.TwoSizeStats }:
		st := pol.Stats()
		out.PolicyStats = &st
	case interface{ Stats() policy.LadderStats }:
		st := pol.Stats()
		out.LadderStats = &st
	}
	if s.pt != nil {
		st := s.pt.nt.Stats()
		out.PageTable = &st
		out.PTWalkCycles = s.pt.cycles
	}
	if s.walker != nil {
		ws := s.walker.Stats()
		out.Walk = &ws
	}
	if s.mem != nil {
		st := s.mem.pt.Stats()
		out.PageTable = &st
		out.Memory = s.mem.counts()
	}
	return out
}

// sub removes a baseline that counts took earlier from the same
// simulator, leaving the activity since. Integer counters subtract
// exactly; gauges keep their current value (see the stats types' Sub).
func (r *Result) sub(base *Result) {
	for i := range r.TLBs {
		r.TLBs[i].Stats.Sub(base.TLBs[i].Stats)
	}
	if r.PolicyStats != nil {
		r.PolicyStats.Sub(*base.PolicyStats)
	}
	if r.LadderStats != nil {
		r.LadderStats.Sub(*base.LadderStats)
	}
	if r.PageTable != nil {
		r.PageTable.Sub(*base.PageTable)
		r.PTWalkCycles -= base.PTWalkCycles
	}
	if r.Walk != nil {
		r.Walk.Sub(*base.Walk)
	}
}

// finish derives everything a Result reports beyond its raw counters:
// each TLB's MPI, CPI_TLB and miss ratio; in walk mode the
// emergent penalty, where the walker's integer cycle total replaces the
// shadow's flat charge and the first TLB (the one whose misses trigger
// walks) reports measured cycles per walk with CPI_TLB recomputed as
// walk cycles over instructions; and the run-report block, with decode
// carrying the trace-decode work. Run and MergeResults both end with
// it, so a merged result is assembled exactly like a serial one.
func (r *Result) finish(decode obs.Counters) {
	for i := range r.TLBs {
		tr := &r.TLBs[i]
		tr.MPI = metrics.MPI(tr.Stats.Misses(), r.Instrs)
		tr.CPITLB = tr.MPI * tr.MissPenalty
		tr.MissRatio = tr.Stats.MissRatio()
	}
	if ws := r.Walk; ws != nil {
		r.PTWalkCycles = float64(ws.Cycles)
		if len(r.TLBs) > 0 {
			r.TLBs[0].MissPenalty = ws.CyclesPerWalk()
			r.TLBs[0].CPITLB = 0
			if r.Instrs > 0 {
				r.TLBs[0].CPITLB = float64(ws.Cycles) / float64(r.Instrs)
			}
		}
	}
	c := obs.Counters{Passes: 1, Refs: r.Refs, Instrs: r.Instrs}
	if len(r.StaticWSS) > 0 {
		c.WSSPages = r.StaticWSS[0].Pages // the first (base) size
	}
	for _, tr := range r.TLBs {
		c.Add(tr.Stats.Counters())
	}
	if ps := r.PolicyStats; ps != nil {
		c.Promotions = ps.Promotions
		c.Demotions = ps.Demotions
	}
	if ls := r.LadderStats; ls != nil {
		c.Promotions = ls.Promotions[1]
		c.Demotions = ls.Demotions[1]
		c.PromotionsSize2 = ls.Promotions[2]
		c.PromotionsSize3 = ls.Promotions[3]
		c.DemotionsSize2 = ls.Demotions[2]
		c.DemotionsSize3 = ls.Demotions[3]
	}
	if pt := r.PageTable; pt != nil {
		c.PTWalks = pt.Lookups
		c.Faults = pt.Misses
		c.CopiedBytes = pt.CopiedBytes
	}
	if m := r.Memory; m != nil {
		// The memory stage reports the transitions it carried out, not
		// the policy's decisions.
		c.Promotions = r.PageTable.Promotions
		c.Demotions = r.PageTable.Demotions
		c.Evictions = m.Evictions
		c.EvictionsSize2 = m.EvictionsByClass[2]
		c.EvictionsSize3 = m.EvictionsByClass[3]
		c.BuddySplits = m.Buddy.Splits
		c.BuddyCoalesces = m.Buddy.Coalesces
		c.BuddyPeakResident = m.Buddy.PeakResident
	}
	if ws := r.Walk; ws != nil {
		c.WalkCycles = ws.Cycles
		c.WalkLoads = ws.Loads()
		c.WalkPWCHits = ws.PWCHits()
		c.WalkPWCMisses = ws.PWCMisses()
		c.WalkMemHits = ws.MemHits
		c.WalkMemMisses = ws.MemMisses
	}
	c.Add(decode)
	r.Counters = c
}

// DecodeCounters harvests a reader's trace-decode counters into a
// run-report block; readers without decode accounting (generators,
// slice readers) contribute zero.
func DecodeCounters(r trace.Reader) obs.Counters {
	dc, ok := r.(trace.DecodeCounter)
	if !ok {
		return obs.Counters{}
	}
	ds := dc.DecodeStats()
	return obs.Counters{
		DecodedRefs:   ds.Refs,
		DecodedBlocks: ds.Blocks,
		DecodedBytes:  ds.Bytes,
	}
}

// applyEvent carries out one policy transition: the memory stage's
// remap, or the page-table shadow's (remap) and the TLB maintenance a
// real OS would do (invalidate).
func (s *Simulator) applyEvent(res policy.Result) {
	if s.mem != nil {
		s.mem.apply(res)
		return
	}
	s.remap(res)
	s.invalidate(res)
}

// eventLevel returns the size class a transition's region is numbered
// at: its Level, or 1 for a policy that leaves Level zero.
func eventLevel(res policy.Result) int {
	return max(int(res.Level), 1)
}

// remap mirrors a transition into the page-table shadow, and flushes
// the walk model's page-walk caches: the remapped region's interior
// descriptors changed shape, and a real MMU shoots those caches down.
func (s *Simulator) remap(res policy.Result) {
	if s.pt != nil {
		s.pt.apply(eventLevel(res), res)
	}
	if s.walker != nil {
		s.walker.FlushPWC()
	}
}

// invalidate performs the TLB maintenance a real OS would: promotion
// into class L invalidates every smaller-class entry under the region
// (the eight small pages of a chunk, in the two-size case), demotion
// the class-L entry itself. The cycle cost of this is folded into the
// multi-size miss penalty, as in the paper (Section 3.4).
func (s *Simulator) invalidate(res policy.Result) {
	level := eventLevel(res)
	switch res.Event {
	case policy.EventPromote:
		for j := 0; j < level; j++ {
			shift := s.classes.Shift(j)
			per := addr.PN(1) << (s.classes.Shift(level) - shift)
			first := res.Chunk * per
			for i := addr.PN(0); i < per; i++ {
				p := policy.Page{Number: first + i, Shift: shift}
				for _, t := range s.tlbs {
					t.Invalidate(p)
				}
			}
		}
	case policy.EventDemote:
		p := policy.Page{Number: res.Chunk, Shift: s.classes.Shift(level)}
		for _, t := range s.tlbs {
			t.Invalidate(p)
		}
	}
}
