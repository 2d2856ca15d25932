package engine

import (
	"context"
	"fmt"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/walk"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

// PolicySpec declaratively describes a page-size assignment policy, so
// that a simulation pass can be keyed and memoized. Exactly one of the
// three forms is used: Single (nonzero) selects the fixed-size
// baseline, a Ladder with at least two size classes selects the N-level
// promotion ladder, otherwise Two selects the paper's dynamic policy.
type PolicySpec struct {
	// Single, when nonzero, is the fixed page size.
	Single addr.PageSize
	// Two is the dynamic two-size configuration used when Single is
	// zero and Ladder is unset. Its DenyPromotion hook must be nil: a
	// function cannot be part of a memoization key (use an opaque Go
	// task for veto policies).
	Two policy.TwoSizeConfig
	// Ladder, when its Classes field names at least two sizes, is the
	// N-level promotion-ladder configuration. Its Deny hook must be nil
	// for the same reason as Two.DenyPromotion.
	Ladder policy.LadderConfig
}

// SinglePolicy returns the spec for the fixed-size policy.
func SinglePolicy(size addr.PageSize) PolicySpec { return PolicySpec{Single: size} }

// TwoSizePolicy returns the spec for the dynamic two-size policy.
func TwoSizePolicy(cfg policy.TwoSizeConfig) PolicySpec { return PolicySpec{Two: cfg} }

// LadderPolicy returns the spec for the N-level promotion ladder.
func LadderPolicy(cfg policy.LadderConfig) PolicySpec { return PolicySpec{Ladder: cfg} }

// New instantiates the policy.
func (p PolicySpec) New() (policy.Assigner, error) {
	if p.Single != 0 {
		if !p.Single.Valid() {
			return nil, fmt.Errorf("engine: invalid page size %d", p.Single)
		}
		return policy.NewSingle(addr.MustPow2(p.Single)), nil
	}
	if p.Ladder.Classes.N() >= 2 {
		if p.Ladder.Deny != nil {
			return nil, fmt.Errorf("engine: Deny hooks cannot be memoized; use an opaque task")
		}
		if p.Ladder.T <= 0 {
			return nil, fmt.Errorf("engine: ladder policy needs T > 0")
		}
		return policy.NewLadder(p.Ladder), nil
	}
	if p.Two.DenyPromotion != nil {
		return nil, fmt.Errorf("engine: DenyPromotion hooks cannot be memoized; use an opaque task")
	}
	if p.Two.T <= 0 {
		return nil, fmt.Errorf("engine: two-size policy needs T > 0")
	}
	return policy.NewTwoSize(p.Two), nil
}

func (p PolicySpec) key() string {
	if p.Single != 0 {
		return fmt.Sprintf("single:%d", p.Single)
	}
	if p.Ladder.Classes.N() >= 2 {
		var b strings.Builder
		fmt.Fprintf(&b, "ladder:T=%d,sc=", p.Ladder.T)
		for i, s := range p.Ladder.Classes.Shifts() {
			if i > 0 {
				b.WriteByte('-')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		b.WriteString(",thr=")
		for i, t := range p.Ladder.Thresholds {
			if i > 0 {
				b.WriteByte('-')
			}
			fmt.Fprintf(&b, "%d", t)
		}
		fmt.Fprintf(&b, ",dem=%t", p.Ladder.Demote)
		return b.String()
	}
	return fmt.Sprintf("two:T=%d,thr=%d,dem=%t,ls=%d",
		p.Two.T, p.Two.Threshold, p.Two.Demote, p.Two.LargeShift)
}

// Unit is one memoizable unit of simulation work: one workload trace
// driven through one policy and at most one TLB configuration. Units
// are the scheduling and deduplication granularity of the engine —
// experiments that share a (workload, refs, policy, TLB-config) tuple
// simulate it once per Engine, no matter how their multi-TLB passes
// were originally grouped.
type Unit struct {
	// Workload is the registered program name (workload.Get).
	Workload string
	// Refs is the trace length.
	Refs uint64
	// Policy assigns page sizes.
	Policy PolicySpec
	// TLB is the simulated TLB configuration; nil means a policy/WSS
	// pass with no TLB.
	TLB *tlb.Config
	// WSS attaches the two-page working-set calculator (requires a
	// two-size policy).
	WSS bool
	// Walk, when set, replaces the flat miss penalty with the modeled
	// multi-level page walk (core.WithWalkModel). Requires a MultiSize
	// policy and a TLB.
	Walk *walk.Config
}

// Key returns the memoization key. TLB configurations are normalized
// first so equivalent spellings (Ways 0 vs Ways == Entries, default
// shifts) share a unit.
func (u Unit) Key() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "w=%s refs=%d pol=%s wss=%t", u.Workload, u.Refs, u.Policy.key(), u.WSS)
	if u.TLB != nil {
		frag, err := u.TLB.Key()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " tlb=%s", frag)
	}
	if u.Walk != nil {
		frag, err := u.Walk.Key()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " walk=%s", frag)
	}
	return b.String(), nil
}

// newSimulator builds a fresh simulator for the unit: its own policy
// and TLB instances, so shard workers running the same unit in parallel
// share nothing.
func (u Unit) newSimulator() (*core.Simulator, error) {
	pol, err := u.Policy.New()
	if err != nil {
		return nil, err
	}
	var tlbs []tlb.TLB
	if u.TLB != nil {
		t, err := tlb.New(*u.TLB)
		if err != nil {
			return nil, err
		}
		tlbs = []tlb.TLB{t}
	}
	var opts []core.Option
	if u.WSS {
		opts = append(opts, core.WithWSS())
	}
	if u.Walk != nil {
		opts = append(opts, core.WithWalkModel(*u.Walk))
	}
	return core.NewSimulator(pol, tlbs, opts...), nil
}

// run executes the unit. The returned Result has exactly one TLBResult
// when u.TLB is set, none otherwise.
func (u Unit) run(ctx context.Context) (*core.Result, error) {
	s, err := workload.Get(u.Workload)
	if err != nil {
		return nil, err
	}
	sim, err := u.newSimulator()
	if err != nil {
		return nil, err
	}
	return sim.Run(ctx, s.New(u.Refs))
}

// PassSpec describes a pass of one policy over one workload trace
// against any number of TLB configurations. The engine decomposes it
// into single-TLB Units so different experiments sharing any unit share
// the work, and merges the unit results back into one core.Result with
// the TLBs in the requested order.
type PassSpec struct {
	Workload string
	Refs     uint64
	Policy   PolicySpec
	// TLBs are the simulated configurations, in result order.
	TLBs []tlb.Config
	// WSS attaches the two-page working-set calculator.
	WSS bool
	// Walk, when set, runs every unit of the pass under the modeled
	// page walk instead of the flat miss penalty.
	Walk *walk.Config
}

// Units returns the spec's decomposition into memoizable units. A spec
// with no TLBs is a single policy/WSS-only unit; the WSS calculator
// rides on the first unit only (its result is independent of the TLB).
func (p PassSpec) Units() []Unit {
	if len(p.TLBs) == 0 {
		return []Unit{{Workload: p.Workload, Refs: p.Refs, Policy: p.Policy, WSS: p.WSS, Walk: p.Walk}}
	}
	units := make([]Unit, len(p.TLBs))
	for i := range p.TLBs {
		cfg := p.TLBs[i]
		units[i] = Unit{
			Workload: p.Workload,
			Refs:     p.Refs,
			Policy:   p.Policy,
			TLB:      &cfg,
			WSS:      p.WSS && i == 0,
			Walk:     p.Walk,
		}
	}
	return units
}

// Pass submits the spec's units to the pool and returns a future of the
// merged result. Units already computed (or in flight) for this Engine
// are shared, not re-simulated. The merged Result must be treated as
// read-only: its TLB entries may be shared with other passes.
func (e *Engine) Pass(ctx context.Context, spec PassSpec) *Future[*core.Result] {
	units := spec.Units()
	futs := make([]*Future[*core.Result], len(units))
	for i, u := range units {
		u := u
		key, err := u.Key()
		if err != nil {
			futs[i] = resolved[*core.Result](nil, err)
			continue
		}
		if f, plan, ok := e.shardFor(u.Workload, u.Policy); ok {
			// Sharded results are approximations of the serial pass;
			// the plan is part of the key so they never alias serial
			// (or differently-sharded) results in the memo cache.
			key := fmt.Sprintf("%s shards=%d warm=%d", key, plan.Shards, plan.Warmup)
			futs[i] = keyedOffPool(e, ctx, key, func(ctx context.Context) (*core.Result, error) {
				res, err := u.runSharded(e, ctx, f, plan, key)
				if err == nil {
					e.Record(key, res.Counters)
				}
				return res, err
			})
			continue
		}
		futs[i] = keyed(e, ctx, key, func(ctx context.Context) (*core.Result, error) {
			res, err := u.run(ctx)
			if err == nil {
				e.Record(key, res.Counters)
			}
			return res, err
		})
	}
	merged := newFuture[*core.Result]()
	go func() {
		defer close(merged.done)
		parts, err := collect(ctx, futs).Wait(ctx)
		if err != nil {
			merged.err = err
			return
		}
		merged.val = mergeParts(parts)
	}()
	return merged
}

// mergeParts reassembles single-TLB unit results into one Result in
// unit order. Policy-side fields are identical across units (same
// trace, same policy); they are taken from the first.
func mergeParts(parts []*core.Result) *core.Result {
	out := &core.Result{
		Policy: parts[0].Policy,
		Refs:   parts[0].Refs,
		Instrs: parts[0].Instrs,
		RPI:    parts[0].RPI,
	}
	for _, p := range parts {
		out.TLBs = append(out.TLBs, p.TLBs...)
		if out.WSS == nil && p.WSS != nil {
			out.WSS = p.WSS
		}
		if out.PolicyStats == nil && p.PolicyStats != nil {
			out.PolicyStats = p.PolicyStats
		}
		if out.LadderStats == nil && p.LadderStats != nil {
			out.LadderStats = p.LadderStats
		}
		// The shadow and the walker hang off each unit's own first TLB,
		// so their counters are per-unit quantities; the first unit that
		// carried them speaks for the pass, like the policy-side fields.
		if out.PageTable == nil && p.PageTable != nil {
			out.PageTable = p.PageTable
			out.PTWalkCycles = p.PTWalkCycles
		}
		if out.Walk == nil && p.Walk != nil {
			out.Walk = p.Walk
		}
		out.Counters.Add(p.Counters)
	}
	return out
}

// StaticShifts is the canonical page-shift ladder measured by StaticWSS
// units: 4KB, 8KB, 16KB, 32KB, 64KB. Measuring the whole ladder in one
// pass costs a few counters per reference and lets every working-set
// experiment share one unit per (workload, refs, T).
var StaticShifts = []uint{addr.Shift4K, addr.Shift8K, addr.Shift16K, addr.Shift32K, addr.Shift64K}

// StaticIndex returns the index of shift in StaticShifts, or -1.
func StaticIndex(shift uint) int {
	for i, s := range StaticShifts {
		if s == shift {
			return i
		}
	}
	return -1
}

// StaticWSSUnit is a memoizable static working-set pass over one
// workload trace, measuring all of StaticShifts at window T.
type StaticWSSUnit struct {
	Workload string
	Refs     uint64
	T        uint64
}

// key is the unit's memoization key. Keeping it a method (rather than
// an inline format string at the submission site) puts it under the
// keycheck analyzer: every StaticWSSUnit field must reach the key.
func (u StaticWSSUnit) key() string {
	return fmt.Sprintf("wss-static w=%s refs=%d T=%d", u.Workload, u.Refs, u.T)
}

// StaticWSS submits the unit, returning average working-set results
// indexed as StaticShifts. Results are shared; treat as read-only.
func (e *Engine) StaticWSS(ctx context.Context, u StaticWSSUnit) *Future[[]wss.Result] {
	key := u.key()
	if f, plan, ok := e.shardFor(u.Workload, PolicySpec{}); ok {
		// The static working-set merge is exact (wss.MergeStatic), so
		// the sharded pass shares the serial unit's key: either path
		// may satisfy a memo hit for the other, bit for bit.
		return keyedOffPool(e, ctx, key, func(ctx context.Context) ([]wss.Result, error) {
			return e.staticWSSSharded(ctx, f, u, plan.Shards, key)
		})
	}
	return keyed(e, ctx, key, func(ctx context.Context) ([]wss.Result, error) {
		s, err := workload.Get(u.Workload)
		if err != nil {
			return nil, err
		}
		sizes := make([]addr.PageSize, len(StaticShifts))
		for i, sh := range StaticShifts {
			sizes[i] = addr.PageSize(1) << sh
		}
		r := s.New(u.Refs)
		results, err := core.MeasureStaticWSS(ctx, r, u.T, sizes...)
		if err != nil {
			return nil, err
		}
		c := core.DecodeCounters(r)
		c.Passes = 1
		c.Refs = u.Refs
		c.WSSPages = results[0].Pages // base (4KB) scheme
		e.Record(key, c)
		return results, nil
	})
}

// TwoWSS couples the dynamic scheme's working-set result with the
// policy counters of the pass that produced it.
type TwoWSS struct {
	WSS   wss.Result
	Stats policy.TwoSizeStats
}

// TwoSizeWSSUnit is a memoizable working-set pass of the dynamic
// two-size policy over one workload trace (no TLBs).
type TwoSizeWSSUnit struct {
	Workload string
	Refs     uint64
	Cfg      policy.TwoSizeConfig
}

// key is the unit's memoization key; delegating the policy fragment to
// PolicySpec.key keeps every TwoSizeConfig knob accountable to the
// keycheck analyzer through one shared spelling.
func (u TwoSizeWSSUnit) key() string {
	return fmt.Sprintf("wss-two w=%s refs=%d pol=%s", u.Workload, u.Refs, TwoSizePolicy(u.Cfg).key())
}

// TwoSizeWSS submits the unit. The configuration's DenyPromotion hook
// must be nil (see PolicySpec).
func (e *Engine) TwoSizeWSS(ctx context.Context, u TwoSizeWSSUnit) *Future[TwoWSS] {
	key := u.key()
	return keyed(e, ctx, key, func(ctx context.Context) (TwoWSS, error) {
		if u.Cfg.DenyPromotion != nil {
			return TwoWSS{}, fmt.Errorf("engine: DenyPromotion hooks cannot be memoized")
		}
		s, err := workload.Get(u.Workload)
		if err != nil {
			return TwoWSS{}, err
		}
		r := s.New(u.Refs)
		res, err := core.NewSimulator(policy.NewTwoSize(u.Cfg), nil, core.WithWSS()).Run(ctx, r)
		if err != nil {
			return TwoWSS{}, err
		}
		stats := *res.PolicyStats
		c := core.DecodeCounters(r)
		c.Passes = 1
		c.Refs = u.Refs
		c.Promotions = stats.Promotions
		c.Demotions = stats.Demotions
		e.Record(key, c)
		return TwoWSS{WSS: *res.WSS, Stats: stats}, nil
	})
}
