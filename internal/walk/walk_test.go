package walk

import (
	"reflect"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/pagetable"
)

func twoClasses(t *testing.T) addr.SizeClasses {
	t.Helper()
	return addr.MustShiftClasses(12, 22)
}

// flatCfg disables the PWCs and the memory-side cache and charges
// every walk load the handler's dependent-load cost, so the per-walk
// total collapses to the flat handler model.
func flatCfg(classes addr.SizeClasses, multi bool) Config {
	return Config{
		Classes:    classes,
		PWCEntries: 0,
		MemBytes:   0,
		HitCycles:  uint64(pagetable.LoadCycles),
		MissCycles: uint64(pagetable.LoadCycles),
		BaseCycles: HandlerBaseCycles(multi),
	}
}

func TestHandlerBaseCycles(t *testing.T) {
	// base + 2 loads must equal the handler totals the flat model uses.
	if got := HandlerBaseCycles(false) + 2*uint64(pagetable.LoadCycles); got != uint64(pagetable.SingleSizeHandlerCycles()) {
		t.Fatalf("single base+2 loads = %d, want %v", got, pagetable.SingleSizeHandlerCycles())
	}
	if got := HandlerBaseCycles(true) + 2*uint64(pagetable.LoadCycles); got != uint64(pagetable.TwoSizeHandlerCycles()) {
		t.Fatalf("two-size base+2 loads = %d, want %v", got, pagetable.TwoSizeHandlerCycles())
	}
}

func TestFlatEquivalencePerWalk(t *testing.T) {
	classes := twoClasses(t)
	cases := []struct {
		name   string
		multi  bool
		levels int
		want   uint64
	}{
		{"single/leaf", false, 2, 20}, // SingleSizeHandlerCycles
		{"two/leaf", true, 2, 25},     // TwoSizeHandlerCycles
		{"two/large", true, 1, 21},    // large page: one level fewer
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := MustNew(flatCfg(classes, tc.multi))
			got := w.Walk(addr.VA(0x1234_5000), tc.levels)
			if got != tc.want {
				t.Fatalf("Walk levels=%d = %d cycles, want %d", tc.levels, got, tc.want)
			}
			if s := w.Stats(); s.Walks != 1 || s.Cycles != tc.want {
				t.Fatalf("stats = %+v, want Walks=1 Cycles=%d", s, tc.want)
			}
		})
	}
}

func TestWalkLevelClamp(t *testing.T) {
	classes := twoClasses(t)
	w := MustNew(flatCfg(classes, true))
	// levels < 1 clamps to 1 (root probe only), > N clamps to N.
	if got := w.Walk(0, 0); got != 21 {
		t.Fatalf("levels=0 walk = %d, want 21", got)
	}
	if got := w.Walk(0, 99); got != 25 {
		t.Fatalf("levels=99 walk = %d, want 25", got)
	}
}

func TestPWCSkipsUpperLevels(t *testing.T) {
	classes := twoClasses(t)
	cfg := flatCfg(classes, true)
	cfg.PWCEntries = 4
	w := MustNew(cfg)

	va := addr.VA(0x4000_0000)
	// Cold walk: PWC miss at class 1, both levels loaded, class-1
	// descriptor inserted.
	if got := w.Walk(va, 2); got != 25 {
		t.Fatalf("cold walk = %d, want 25", got)
	}
	s := w.Stats()
	if s.PWCMissesByClass[1] != 1 || s.PWCHitsByClass[1] != 0 {
		t.Fatalf("cold stats = %+v, want one class-1 PWC miss", s)
	}
	if s.LoadsByClass[1] != 1 || s.LoadsByClass[0] != 1 {
		t.Fatalf("cold loads = %+v, want one load per class", s.LoadsByClass)
	}

	// Warm walk through the same class-1 region: PWC hit skips the
	// root load — only the leaf PTE is fetched.
	if got := w.Walk(va+addr.VA(1<<12), 2); got != 21 {
		t.Fatalf("warm walk = %d, want 21 (root load skipped)", got)
	}
	s = w.Stats()
	if s.PWCHitsByClass[1] != 1 {
		t.Fatalf("warm stats = %+v, want one class-1 PWC hit", s)
	}
	if s.LoadsByClass[1] != 1 {
		t.Fatalf("PWC hit still loaded class 1: %+v", s.LoadsByClass)
	}

	// A walk that resolves at class 1 (large page) probes no PWC —
	// there is no interior level above the resolved one to cache.
	before := w.Stats()
	w.Walk(va, 1)
	after := w.Stats()
	if after.PWCHits() != before.PWCHits() || after.PWCMisses() != before.PWCMisses() {
		t.Fatalf("levels=1 walk probed the PWC: before=%+v after=%+v", before, after)
	}
}

func TestPWCEvictionDeterministic(t *testing.T) {
	classes := twoClasses(t)
	cfg := flatCfg(classes, true)
	cfg.PWCEntries = 2

	run := func() Stats {
		w := MustNew(cfg)
		// Touch three distinct class-1 regions (insert order 0,1,2 with
		// cap 2 evicts region 0), then revisit region 0 (miss) and
		// region 2 (hit).
		for _, r := range []uint64{0, 1, 2, 0, 2} {
			w.Walk(addr.VA(r<<22), 2)
		}
		return w.Stats()
	}

	s := run()
	if s.PWCHitsByClass[1] != 1 {
		t.Fatalf("stats = %+v, want exactly one class-1 PWC hit (region 2 retained)", s)
	}
	if s.PWCMissesByClass[1] != 4 {
		t.Fatalf("stats = %+v, want four class-1 PWC misses", s)
	}
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, s) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, got, s)
		}
	}
}

func TestPWCFlush(t *testing.T) {
	classes := twoClasses(t)
	cfg := flatCfg(classes, true)
	cfg.PWCEntries = 4
	w := MustNew(cfg)

	va := addr.VA(0x4000_0000)
	w.Walk(va, 2)
	w.FlushPWC()
	w.Walk(va, 2) // would hit without the flush
	s := w.Stats()
	if s.PWCHits() != 0 {
		t.Fatalf("PWC hit survived a flush: %+v", s)
	}
	if s.PWCFlushes != 1 {
		t.Fatalf("PWCFlushes = %d, want 1", s.PWCFlushes)
	}

	// Flushing with PWCs disabled is a silent no-op.
	off := MustNew(flatCfg(classes, true))
	off.FlushPWC()
	if off.Stats().PWCFlushes != 0 {
		t.Fatal("disabled-PWC flush was counted")
	}
}

func TestMemorySideCache(t *testing.T) {
	classes := twoClasses(t)
	cfg := Default(classes)
	cfg.PWCEntries = 0 // isolate the memory-side model
	cfg.BaseCycles = HandlerBaseCycles(true)
	w := MustNew(cfg)

	va := addr.VA(0x4000_0000)
	first := w.Walk(va, 2)
	// Same VA again: both descriptor lines are now resident.
	second := w.Walk(va, 2)
	wantFirst := cfg.BaseCycles + 2*cfg.MissCycles
	wantSecond := cfg.BaseCycles + 2*cfg.HitCycles
	if first != wantFirst || second != wantSecond {
		t.Fatalf("walks = %d, %d; want %d, %d", first, second, wantFirst, wantSecond)
	}
	s := w.Stats()
	if s.MemHits != 2 || s.MemMisses != 2 {
		t.Fatalf("mem stats = %+v, want 2 hits / 2 misses", s)
	}

	// Adjacent 4K pages share a 32-byte PTE line (4 PTEs per line): the
	// leaf load of va+4K hits the line va's walk brought in.
	third := w.Walk(va+addr.VA(1<<12), 2)
	if third != cfg.BaseCycles+2*cfg.HitCycles {
		t.Fatalf("adjacent-page walk = %d, want all-hit %d", third, cfg.BaseCycles+2*cfg.HitCycles)
	}
}

func TestStatsMergeSub(t *testing.T) {
	classes := twoClasses(t)
	cfg := Default(classes)
	cfg.BaseCycles = HandlerBaseCycles(true)

	// One walker over the whole sequence vs two walkers over halves:
	// state-dependent counters differ, but Merge must be exact
	// summation, and Sub must invert Merge.
	a := MustNew(cfg)
	b := MustNew(cfg)
	for i := 0; i < 50; i++ {
		a.Walk(addr.VA(uint64(i)*0x5000), 2)
		b.Walk(addr.VA(uint64(i)*0x9000), 2)
	}
	sa, sb := a.Stats(), b.Stats()

	merged := sa
	merged.Merge(sb)
	if merged.Walks != sa.Walks+sb.Walks || merged.Cycles != sa.Cycles+sb.Cycles {
		t.Fatalf("merge totals wrong: %+v", merged)
	}
	if merged.Loads() != sa.Loads()+sb.Loads() {
		t.Fatalf("merge loads wrong: %d vs %d+%d", merged.Loads(), sa.Loads(), sb.Loads())
	}

	back := merged
	back.Sub(sb)
	if !reflect.DeepEqual(back, sa) {
		t.Fatalf("Sub did not invert Merge: %+v vs %+v", back, sa)
	}

	var zero Stats
	zeroed := sa
	zeroed.Sub(sa)
	if !reflect.DeepEqual(zeroed, zero) {
		t.Fatalf("x.Sub(x) != zero: %+v", zeroed)
	}
}

// TestStatsMergeCoversAllFields guards Merge/Sub against silently
// dropping a future field: merging a fully-saturated Stats into a zero
// one must leave no field at its zero value.
func TestStatsMergeCoversAllFields(t *testing.T) {
	var full Stats
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(7)
			}
		default:
			t.Fatalf("unhandled Stats field kind %v; extend this test and Merge/Sub", f.Kind())
		}
	}
	var m Stats
	m.Merge(full)
	if !reflect.DeepEqual(m, full) {
		t.Fatalf("Merge dropped a field: %+v vs %+v", m, full)
	}
	m.Sub(full)
	if !reflect.DeepEqual(m, Stats{}) {
		t.Fatalf("Sub dropped a field: %+v", m)
	}
}

func TestRatioHelpers(t *testing.T) {
	var s Stats
	if s.CyclesPerWalk() != 0 || s.PWCHitRatio() != 0 || s.MemHitRatio() != 0 {
		t.Fatal("zero stats must yield zero ratios, not NaN")
	}
	s.Walks, s.Cycles = 4, 100
	if got := s.CyclesPerWalk(); got != 25 {
		t.Fatalf("CyclesPerWalk = %v, want 25", got)
	}
	s.PWCHitsByClass[1], s.PWCMissesByClass[1] = 3, 1
	if got := s.PWCHitRatio(); got != 0.75 {
		t.Fatalf("PWCHitRatio = %v, want 0.75", got)
	}
	s.MemHits, s.MemMisses = 1, 3
	if got := s.MemHitRatio(); got != 0.25 {
		t.Fatalf("MemHitRatio = %v, want 0.25", got)
	}
}

func TestConfigKey(t *testing.T) {
	classes := twoClasses(t)
	base := Default(classes)
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Every field must move the key.
	variants := []func(*Config){
		func(c *Config) { c.Classes = addr.MustShiftClasses(12, 19) },
		func(c *Config) { c.PWCEntries = 16 },
		func(c *Config) { c.MemBytes = 4096 },
		func(c *Config) { c.MemWays = 2 },
		func(c *Config) { c.HitCycles = 2 },
		func(c *Config) { c.MissCycles = 40 },
		func(c *Config) { c.BaseCycles = 12 },
	}
	for i, mut := range variants {
		c := base
		mut(&c)
		k2, err := c.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if k2 == k1 {
			t.Fatalf("variant %d did not change the key %q", i, k1)
		}
	}

	// Normalization: MemWays defaults only when the cache is enabled,
	// so the explicit-default spelling shares a key.
	c := base
	c.MemWays = 0
	k3, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Fatalf("MemWays default not normalized: %q vs %q", k3, k1)
	}

	// Invalid configs error out of Key as they do out of New.
	bad := base
	bad.MissCycles = 0
	if _, err := bad.Key(); err == nil {
		t.Fatal("zero MissCycles key must error")
	}
	if _, err := (Config{}).Key(); err == nil {
		t.Fatal("zero-value config key must error")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	classes := twoClasses(t)
	bad := []Config{
		{},
		{Classes: classes}, // MissCycles 0
		{Classes: classes, MissCycles: 24, PWCEntries: -1},           // negative PWC
		{Classes: classes, MissCycles: 24, MemBytes: -1},             // negative mem
		{Classes: classes, MissCycles: 24, MemBytes: 48},             // non-pow2 mem size
		{Classes: classes, MissCycles: 24, MemBytes: 64, MemWays: 3}, // non-pow2 ways
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Default(classes)); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestWalkZeroAllocs(t *testing.T) {
	classes := twoClasses(t)
	w := MustNew(Default(classes))
	var i uint64
	allocs := testing.AllocsPerRun(2000, func() {
		w.Walk(addr.VA(i*0x3000), 2)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Walk allocates %v per call, want 0", allocs)
	}
	wf := MustNew(Default(classes))
	wf.Walk(0, 2)
	allocs = testing.AllocsPerRun(200, wf.FlushPWC)
	if allocs != 0 {
		t.Fatalf("FlushPWC allocates %v per call, want 0", allocs)
	}
}

// Tuned applies the commands' knob rule: zero keeps the default,
// negative disables, positive sets the capacity.
func TestTuned(t *testing.T) {
	classes := addr.MustShiftClasses(addr.Shift4K, addr.Shift32K)
	if got := Tuned(classes, 0, 0); !reflect.DeepEqual(got, Default(classes)) {
		t.Errorf("Tuned(0, 0) = %+v, want Default %+v", got, Default(classes))
	}
	for _, tc := range []struct{ pwc, mem, wantPWC, wantMem int }{
		{-1, 0, 0, DefaultMemBytes},
		{0, -1, DefaultPWCEntries, 0},
		{8, 4096, 8, 4096},
	} {
		want := Default(classes)
		want.PWCEntries, want.MemBytes = tc.wantPWC, tc.wantMem
		if got := Tuned(classes, tc.pwc, tc.mem); !reflect.DeepEqual(got, want) {
			t.Errorf("Tuned(%d, %d) = %+v, want %+v", tc.pwc, tc.mem, got, want)
		}
	}
}
