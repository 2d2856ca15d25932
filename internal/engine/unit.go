package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/walk"
)

// PolicySpec declaratively describes a page-size assignment policy, so
// that a simulation pass can be keyed and memoized. It sets one of
// three forms: Single (nonzero) selects the fixed-size baseline, a
// Ladder with at least two size classes selects the N-level promotion
// ladder, otherwise Two selects the paper's dynamic policy. A spec that
// sets more than one form, or a Ladder with fewer than two classes, is
// an error.
type PolicySpec struct {
	// Single, when nonzero, is the fixed page size.
	Single addr.PageSize
	// Two is the dynamic two-size configuration used when Single is
	// zero and Ladder is unset.
	Two policy.TwoSizeConfig
	// Ladder, when its Classes field names at least two sizes, is the
	// N-level promotion-ladder configuration.
	Ladder policy.LadderConfig
}

// SinglePolicy returns the spec for the fixed-size policy.
func SinglePolicy(size addr.PageSize) PolicySpec { return PolicySpec{Single: size} }

// TwoSizePolicy returns the spec for the dynamic two-size policy.
func TwoSizePolicy(cfg policy.TwoSizeConfig) PolicySpec { return PolicySpec{Two: cfg} }

// LadderPolicy returns the spec for the N-level promotion ladder.
func LadderPolicy(cfg policy.LadderConfig) PolicySpec { return PolicySpec{Ladder: cfg} }

// check rejects a spec that would silently build, and key, one form
// of several: more than one form set, or a Ladder too short to be one.
func (p PolicySpec) check() error {
	var set []string
	if p.Single != 0 {
		set = append(set, "Single")
	}
	if p.Two != (policy.TwoSizeConfig{}) {
		set = append(set, "Two")
	}
	ladder := !reflect.ValueOf(p.Ladder).IsZero()
	if ladder {
		set = append(set, "Ladder")
	}
	if len(set) > 1 {
		return fmt.Errorf("engine: PolicySpec sets %s; set one form", strings.Join(set, " and "))
	}
	if ladder && p.Ladder.Classes.N() < 2 {
		return fmt.Errorf("engine: PolicySpec Ladder needs at least two size classes, got %d", p.Ladder.Classes.N())
	}
	return nil
}

// New instantiates the policy.
func (p PolicySpec) New() (policy.Assigner, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if p.Single != 0 {
		if !p.Single.Valid() {
			return nil, fmt.Errorf("engine: invalid page size %d", p.Single)
		}
		return policy.NewSingle(addr.MustPow2(p.Single)), nil
	}
	if p.Ladder.Classes.N() >= 2 {
		if err := p.Ladder.Validate(); err != nil {
			return nil, err
		}
		return policy.NewLadder(p.Ladder), nil
	}
	if err := p.Two.Validate(); err != nil {
		return nil, err
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
// are the memoization and reporting granularity of the engine —
// experiments that share a (workload, refs, policy, TLB-config) tuple
// simulate it once per Engine, no matter how their multi-TLB passes
// were originally grouped, and each executed unit records its own
// counters. Execution fuses units: pending units of one stream run in
// one read of it, each still resolving to its solo Result (fuse.go).
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
	if err := u.Policy.check(); err != nil {
		return "", err
	}
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

// pass is the unit as a one-TLB (or TLB-less) pass.
func (u Unit) pass() PassSpec {
	p := PassSpec{Workload: u.Workload, Refs: u.Refs, Policy: u.Policy, WSS: u.WSS, Walk: u.Walk}
	if u.TLB != nil {
		p.TLBs = []tlb.Config{*u.TLB}
	}
	return p
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

// newSimulator builds a fresh simulator for the whole pass: its own
// policy and TLB instances, so shard workers running the same unit in
// parallel share nothing.
func (p PassSpec) newSimulator() (*core.Simulator, error) {
	pol, err := p.Policy.New()
	if err != nil {
		return nil, err
	}
	var tlbs []tlb.TLB
	for _, cfg := range p.TLBs {
		t, err := tlb.New(cfg)
		if err != nil {
			return nil, err
		}
		tlbs = append(tlbs, t)
	}
	var opts []core.Option
	if p.WSS {
		opts = append(opts, core.WithWSS())
	}
	if p.Walk != nil {
		opts = append(opts, core.WithWalkModel(*p.Walk))
	}
	return core.NewSimulator(pol, tlbs, opts...), nil
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
		futs[i] = e.unit(ctx, u)
	}
	return collect(ctx, futs, mergeParts)
}

// unit submits one Unit: sharded off the pool when the engine shards
// the unit's workload, otherwise on a pool slot, in a fused group with
// the pending members of its stream (fuse.go).
func (e *Engine) unit(ctx context.Context, u Unit) *Future[*core.Result] {
	key, err := u.Key()
	if err != nil {
		return resolved[*core.Result](nil, err)
	}
	var t *ticket
	var run func(context.Context) (*core.Result, error)
	f, plan, sharded := e.shardFor(u.Workload, u.Policy)
	if sharded {
		// Sharded results are approximations of the serial pass; the
		// plan is part of the key so they never alias serial (or
		// differently-sharded) results in the memo cache.
		key = fmt.Sprintf("%s shards=%d warm=%d", key, plan.Shards, plan.Warmup)
		run = func(ctx context.Context) (*core.Result, error) {
			return RunSharded(e, ctx, f, u.Refs, plan, key, u.pass().newSimulator)
		}
	} else {
		t = newTicket(ctx, u.Workload, u.Refs)
		t.unit = u
		if u.TLB != nil && u.Walk == nil {
			t.policy = u.Policy.key()
		}
		run = t.result
	}
	return e.submitPass(ctx, key, sharded, t, run)
}

// submitPass submits a memoized pass under key, off the pool when
// sharded and otherwise in t's fused group; the pass records its
// counters in the run report under key when it runs.
func (e *Engine) submitPass(ctx context.Context, key string, sharded bool, t *ticket, run func(context.Context) (*core.Result, error)) *Future[*core.Result] {
	return submit(e, ctx, key, true, sharded, t, func(ctx context.Context) (*core.Result, error) {
		res, err := run(ctx)
		if err != nil {
			return nil, err
		}
		e.Record(key, res.Counters)
		return res, nil
	})
}

// Ride submits an opaque core pass over refs references of a registered
// workload: build returns the pass's simulator, and the future resolves
// to its Result. A ride joins its stream's fused group as a unit does,
// so one read of the stream serves both (fuse.go), but it is no unit:
// nothing keys, memoizes or records it. label identifies it in progress
// events, as Go's label does, and a caller that reports the pass
// records its counters itself (Record).
func (e *Engine) Ride(ctx context.Context, label, workload string, refs uint64, build func() (*core.Simulator, error)) *Future[*core.Result] {
	t := newTicket(ctx, workload, refs)
	t.build = build
	return submit(e, ctx, label, false, false, t, t.result)
}

// mergeParts reassembles single-TLB unit results into one Result in
// unit order. Policy-side fields are identical across units (same
// trace, same policy); they are taken from the first.
func mergeParts(parts []*core.Result) *core.Result {
	out := &core.Result{
		Policy: parts[0].Policy,
		Refs:   parts[0].Refs,
		Instrs: parts[0].Instrs,
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

// StaticWSS submits the unit, returning its pass: Result.StaticWSS
// indexed as StaticShifts, the instruction count, and the stream's
// 4KB footprint (Result.Footprint), the one profile of the stream that
// experiments read. Results are shared; treat as read-only. The serial
// pass joins its stream's fused group like a unit (fuse.go).
func (e *Engine) StaticWSS(ctx context.Context, u StaticWSSUnit) *Future[*core.Result] {
	key := u.key()
	// The static working-set merge is exact (core.MergeResults), so the
	// sharded pass shares the serial unit's key and replays no warm-up:
	// either path may satisfy a memo hit for the other, bit for bit.
	var t *ticket
	var run func(context.Context) (*core.Result, error)
	f, plan, sharded := e.shardFor(u.Workload, PolicySpec{})
	if sharded {
		run = func(ctx context.Context) (*core.Result, error) {
			return RunSharded(e, ctx, f, u.Refs, ShardPlan{Shards: plan.Shards}, key, u.newSimulator)
		}
	} else {
		t = newTicket(ctx, u.Workload, u.Refs)
		t.build = u.newSimulator
		run = t.result
	}
	return e.submitPass(ctx, key, sharded, t, run)
}

// newSimulator builds the static pass: a 4KB Single policy, no TLBs,
// and the working sets of every StaticShifts size.
func (u StaticWSSUnit) newSimulator() (*core.Simulator, error) {
	sizes := make([]addr.PageSize, len(StaticShifts))
	for i, sh := range StaticShifts {
		sizes[i] = addr.PageSize(1) << sh
	}
	return core.NewSimulator(policy.NewSingle(addr.Size4K), nil, core.WithStaticWSS(u.T, sizes...)), nil
}
