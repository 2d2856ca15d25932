package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"twopage/internal/tableio"
	"twopage/internal/workload"
)

// topts normalizes a literal Options for direct experiment calls.
func topts(o Options) *Options {
	o.normalize()
	return &o
}

// cellF parses a table cell as a float.
func cellF(t *testing.T, tbl *tableio.Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSpace(tbl.Cell(row, col)), "x")
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	s = strings.TrimSuffix(s, "MB")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a float: %v", row, col, tbl.Cell(row, col), err)
	}
	return v
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.About == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if _, err := Get(e.ID); err != nil {
			t.Errorf("Get(%q): %v", e.ID, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
	if err := NewRunner().Run(context.Background(), "nope"); err == nil {
		t.Fatal("Run of unknown id should error")
	}
}

func TestRunWritesOutput(t *testing.T) {
	var buf bytes.Buffer
	err := NewRunner(WithScale(0.01), WithOut(&buf), WithWorkloads("li")).Run(context.Background(), "table3.1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "li") {
		t.Fatalf("output missing workload row:\n%s", buf.String())
	}
	buf.Reset()
	err = NewRunner(WithScale(0.01), WithOut(&buf), WithCSV(true), WithWorkloads("li")).Run(context.Background(), "table3.1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Program,") {
		t.Fatalf("CSV output malformed:\n%s", buf.String())
	}
}

func TestBadWorkloadPropagates(t *testing.T) {
	_, err := Table31(context.Background(), topts(Options{Scale: 0.01, Workloads: []string{"bogus"}}))
	if err == nil {
		t.Fatal("bogus workload should error")
	}
}

func TestTable31AllPrograms(t *testing.T) {
	tbl, err := Table31(context.Background(), topts(Options{Scale: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 12 {
		t.Fatalf("rows = %d, want 12", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		rpi := cellF(t, tbl, r, 2)
		if rpi < 1.2 || rpi > 1.5 {
			t.Errorf("row %d: RPI %v implausible", r, rpi)
		}
	}
}

// Figure 4.1 invariants: normalized working sets are >= ~1 and
// non-decreasing with page size, for every program.
func TestFig41Shapes(t *testing.T) {
	tbl, err := Fig41(context.Background(), topts(Options{Scale: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 13 { // 12 programs + AVERAGE
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		prev := 0.97
		for c := 1; c <= 4; c++ {
			v := cellF(t, tbl, r, c)
			if v < prev-0.02 {
				t.Errorf("row %d (%s): WS_norm not monotone: col %d = %v after %v",
					r, tbl.Cell(r, 0), c, v, prev)
			}
			prev = v
		}
	}
	// The paper's qualitative claim: meaningful average growth at 32KB.
	avg32 := cellF(t, tbl, 12, 3)
	if avg32 < 1.3 || avg32 > 3.0 {
		t.Errorf("average WS_norm(32KB) = %v, expected paper-like 1.3-3.0", avg32)
	}
}

// Figure 4.2 invariant: the two-page scheme is far cheaper in working
// set than the 32KB single size, and cheap in absolute terms (~1.1).
func TestFig42TwoPageIsCheap(t *testing.T) {
	tbl, err := Fig42(context.Background(), topts(Options{Scale: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	avgRow := tbl.Rows() - 1
	avg32 := cellF(t, tbl, avgRow, 3)
	avgTwo := cellF(t, tbl, avgRow, 4)
	if avgTwo >= avg32 {
		t.Fatalf("two-page WS (%v) should be well below 32KB (%v)", avgTwo, avg32)
	}
	if avgTwo < 0.99 || avgTwo > 1.45 {
		t.Fatalf("two-page avg WS_norm = %v, expected ~1.1", avgTwo)
	}
	for r := 0; r < avgRow; r++ {
		two := cellF(t, tbl, r, 4)
		if two < 0.98 {
			t.Errorf("row %s: two-page WS_norm %v below 1", tbl.Cell(r, 0), two)
		}
	}
}

// Figure 5.1 invariants on representative programs: 32KB crushes 4KB;
// the two-page scheme approaches 32KB for matrix300 and degrades for
// worm (which never promotes).
func TestFig51Shapes(t *testing.T) {
	tbl, err := Fig51(context.Background(), topts(Options{Scale: 0.04, Workloads: []string{"worm", "matrix300", "nasa7"}}))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for r := 0; r < tbl.Rows(); r++ {
		rows[tbl.Cell(r, 0)] = r
	}
	for name, r := range rows {
		cpi4, cpi32 := cellF(t, tbl, r, 1), cellF(t, tbl, r, 3)
		if cpi32 >= cpi4/2 {
			t.Errorf("%s: 32KB (%v) should be far below 4KB (%v)", name, cpi32, cpi4)
		}
	}
	r := rows["matrix300"]
	if two := cellF(t, tbl, r, 4); two > cellF(t, tbl, r, 1)/2 {
		t.Errorf("matrix300 two-page CPI %v should be well below 4KB %v",
			two, cellF(t, tbl, r, 1))
	}
	r = rows["worm"]
	if two := cellF(t, tbl, r, 4); two <= cellF(t, tbl, r, 1) {
		t.Errorf("worm two-page CPI %v should exceed 4KB %v (penalty without promotion)",
			two, cellF(t, tbl, r, 1))
	}
}

// Table 5.1 invariants: the large-page index without large pages (col 2)
// degrades vs col 1 for every program; tomcatv thrashes the two-page
// schemes; matrix300 wins with them.
func TestTable51Shapes(t *testing.T) {
	tbl, err := Table51(context.Background(), topts(Options{Scale: 0.04, Workloads: []string{"espresso", "matrix300", "tomcatv"}}))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		name := tbl.Cell(r, 0)
		c4, cLg := cellF(t, tbl, r, 2), cellF(t, tbl, r, 3)
		if cLg <= c4 {
			t.Errorf("%s (row %d): 4KB large-index (%v) should degrade vs 4KB (%v)", name, r, cLg, c4)
		}
		twoEx := cellF(t, tbl, r, 5)
		switch name {
		case "tomcatv":
			if twoEx < 2*c4 {
				t.Errorf("tomcatv: two-page exact (%v) should thrash vs 4KB (%v)", twoEx, c4)
			}
		case "matrix300":
			if twoEx > c4/2 {
				t.Errorf("matrix300: two-page exact (%v) should win vs 4KB (%v)", twoEx, c4)
			}
		}
	}
}

func TestDeltaMPShapes(t *testing.T) {
	tbl, err := DeltaMP(context.Background(), topts(Options{Scale: 0.04, Workloads: []string{"matrix300", "worm"}}))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for r := 0; r < tbl.Rows(); r++ {
		rows[tbl.Cell(r, 0)] = r
	}
	if v := cellF(t, tbl, rows["matrix300"], 1); v <= 100 {
		t.Errorf("matrix300 FA Δmp = %v%%, expected large positive headroom", v)
	}
	if v := cellF(t, tbl, rows["worm"], 1); v >= 25 {
		t.Errorf("worm FA Δmp = %v%%, expected little headroom", v)
	}
}

func TestSensitivityTRuns(t *testing.T) {
	tbl, err := SensitivityT(context.Background(), topts(Options{Scale: 0.02, Workloads: []string{"matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	// Dense program: WS_norm(32K) stable in T within a loose band.
	lo, hi := cellF(t, tbl, 0, 1), cellF(t, tbl, 0, 3)
	if hi/lo > 1.5 {
		t.Errorf("matrix300 32KB WS_norm varies too much with T: %v..%v", lo, hi)
	}
}

func TestIndexingDegrades(t *testing.T) {
	tbl, err := Indexing(context.Background(), topts(Options{Scale: 0.03, Workloads: []string{"li", "espresso"}}))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		if d := cellF(t, tbl, r, 3); d <= 1.0 {
			t.Errorf("%s: 16-entry degradation factor %v should exceed 1",
				tbl.Cell(r, 0), d)
		}
	}
}

func TestThresholdSweep(t *testing.T) {
	tbl, err := ThresholdSweep(context.Background(), topts(Options{Scale: 0.02, Workloads: []string{"matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 8 {
		t.Fatalf("rows = %d, want 8 thresholds", tbl.Rows())
	}
	// Higher thresholds promote less: large-ref% must be non-increasing
	// (allowing small noise).
	prev := 101.0
	for r := 0; r < tbl.Rows(); r++ {
		pct := cellF(t, tbl, r, 4)
		if pct > prev+5 {
			t.Errorf("threshold %s: large-ref%% %v rose vs %v", tbl.Cell(r, 1), pct, prev)
		}
		prev = pct
		// The paper's doubling bound holds at threshold >= 4.
		if thr := cellF(t, tbl, r, 1); thr >= 4 {
			if wsn := cellF(t, tbl, r, 3); wsn > 2.0 {
				t.Errorf("threshold %v: WS_norm %v exceeds the 2x bound", thr, wsn)
			}
		}
	}
}

func TestCombos(t *testing.T) {
	tbl, err := Combos(context.Background(), topts(Options{Scale: 0.02, Workloads: []string{"li"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 1 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// The half-or-more rule bounds the working-set cost at 2x for every
	// combination; note the cost is NOT monotone in the large-page size,
	// because bigger chunks are harder to fill to the threshold (li's
	// 24KB arenas never promote into 64KB chunks).
	for c := 4; c <= 6; c++ {
		w := cellF(t, tbl, 0, c)
		if w < 0.98 || w > 2.0 {
			t.Errorf("col %d: WS_norm %v outside [1, 2]", c, w)
		}
	}
}

func TestSplitVsUnified(t *testing.T) {
	tbl, err := SplitVsUnified(context.Background(), topts(Options{Scale: 0.02, Workloads: []string{"matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	// Full associativity is never worse than the unified 2-way here.
	if fa, un := cellF(t, tbl, 0, 4), cellF(t, tbl, 0, 1); fa > un+0.05 {
		t.Errorf("fully associative (%v) should not lose to 2-way (%v)", fa, un)
	}
}

func TestReplacementSweep(t *testing.T) {
	tbl, err := ReplacementSweep(context.Background(), topts(Options{Scale: 0.02, Workloads: []string{"li"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 1 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for c := 1; c <= 6; c++ {
		if v := cellF(t, tbl, 0, c); v < 0 {
			t.Errorf("negative CPI in column %d", c)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := &Options{}
	o.normalize()
	if o.Scale != 1.0 || o.Out == nil || o.Engine == nil {
		t.Fatalf("normalize: %+v", o)
	}
	// normalize is idempotent: a second call must not replace the engine.
	e := o.Engine
	o.normalize()
	if o.Engine != e {
		t.Fatal("normalize replaced the engine on second call")
	}
	// The functional constructor applies options then normalizes.
	no := NewOptions(WithScale(0.5), WithWorkloads("li"), WithParallelism(2))
	if no.Scale != 0.5 || len(no.Workloads) != 1 || no.Engine == nil {
		t.Fatalf("NewOptions: %+v", no)
	}
	if no.Engine.Parallelism() != 2 {
		t.Fatalf("engine parallelism = %d, want 2", no.Engine.Parallelism())
	}
	if got := windowFor(80); got != 5_000 {
		t.Fatalf("windowFor floor = %d", got)
	}
	spec, err := workload.Get("li")
	if err != nil {
		t.Fatal(err)
	}
	if refsFor(spec, 1e-9) != 40_000 {
		t.Fatal("refsFor floor not applied")
	}
}

func TestMultiprogShapes(t *testing.T) {
	tbl, err := Multiprog(context.Background(), topts(Options{Scale: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 6 { // degrees 1,2,4 x {asid, flush}
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// Row pairs: (asid, flush) per degree. Flushing can never help on
	// the large TLB; switches match within a degree.
	for r := 0; r < tbl.Rows(); r += 2 {
		asid64 := cellF(t, tbl, r, 3)
		flush64 := cellF(t, tbl, r+1, 3)
		if flush64 < asid64-1e-9 {
			t.Errorf("degree %s: flush FA64 CPI %v beats ASID %v", tbl.Cell(r, 0), flush64, asid64)
		}
		if tbl.Cell(r, 6) != tbl.Cell(r+1, 6) {
			t.Errorf("switch counts differ within degree %s", tbl.Cell(r, 0))
		}
	}
	// Degree 1 has no switches.
	if tbl.Cell(0, 6) != "0" {
		t.Errorf("degree 1 switches = %s", tbl.Cell(0, 6))
	}
}

func TestTLBSweepShapes(t *testing.T) {
	tbl, err := TLBSweep(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"li", "matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 { // 2 programs x 2 page sizes
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		prev := cellF(t, tbl, r, 2)
		for c := 3; c <= 6; c++ {
			v := cellF(t, tbl, r, c)
			if v > prev+1e-9 {
				t.Errorf("row %d: CPI not monotone in TLB size (col %d: %v > %v)", r, c, v, prev)
			}
			prev = v
		}
	}
	// The paper's observation: with 32KB pages a 64-entry TLB has a
	// negligible miss rate for these workloads.
	for r := 0; r < tbl.Rows(); r++ {
		if tbl.Cell(r, 1) == "32KB" {
			if v := cellF(t, tbl, r, 5); v > 0.05 {
				t.Errorf("%s: 32KB @ 64 entries CPI %v not negligible", tbl.Cell(r, 0), v)
			}
		}
	}
}

func TestMissHandlingShapes(t *testing.T) {
	tbl, err := MissHandling(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"worm", "matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for r := 0; r < tbl.Rows(); r++ {
		rows[tbl.Cell(r, 0)] = r
	}
	// worm's misses are all small pages: small-first probing must beat
	// large-first. matrix300's are mostly large: the reverse.
	r := rows["worm"]
	if sf, lf := cellF(t, tbl, r, 2), cellF(t, tbl, r, 3); sf >= lf {
		t.Errorf("worm: small-first (%v) should beat large-first (%v)", sf, lf)
	}
	if lm := cellF(t, tbl, r, 6); lm > 10 {
		t.Errorf("worm large-miss%% = %v, want ~0", lm)
	}
	r = rows["matrix300"]
	if sf, lf := cellF(t, tbl, r, 2), cellF(t, tbl, r, 3); lf >= sf {
		t.Errorf("matrix300: large-first (%v) should beat small-first (%v)", lf, sf)
	}
	// Every organization lands in a plausible handler-cost band.
	for name, r := range rows {
		for c := 1; c <= 4; c++ {
			v := cellF(t, tbl, r, c)
			if v < 10 || v > 80 {
				t.Errorf("%s col %d: %v cycles implausible", name, c, v)
			}
		}
	}
}

func TestPressureShapes(t *testing.T) {
	tbl, err := Pressure(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 6 { // 3 memory sizes x 2 policies
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// Ample-memory rows (first two) have no evictions; the tightest
	// memory (512KB for a ~2MB footprint) must evict under both
	// policies.
	if ev := cellF(t, tbl, 0, 5); ev != 0 {
		t.Errorf("ample-memory 4KB evictions = %v", ev)
	}
	if ev := cellF(t, tbl, 4, 5); ev <= 0 {
		t.Errorf("tight-memory 4KB evictions = %v, want > 0", ev)
	}
	if ev := cellF(t, tbl, 5, 5); ev <= 0 {
		t.Errorf("tight-memory two-page evictions = %v, want > 0", ev)
	}
	// Two-page rows carry promotion copy traffic; 4KB rows none.
	if ck := cellF(t, tbl, 0, 7); ck != 0 {
		t.Errorf("4KB copiedKB = %v", ck)
	}
	if ck := cellF(t, tbl, 1, 7); ck <= 0 {
		t.Errorf("two-page copiedKB = %v, want > 0", ck)
	}
}

func TestConflictShapes(t *testing.T) {
	tbl, err := Conflict(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"tomcatv"}}))
	if err != nil {
		t.Fatal(err)
	}
	plain := cellF(t, tbl, 0, 1)
	vict := cellF(t, tbl, 0, 2)
	fa := cellF(t, tbl, 0, 4)
	if vict >= plain {
		t.Errorf("victim buffer (%v) should improve tomcatv vs plain 2-way (%v)", vict, plain)
	}
	if fa >= plain {
		t.Errorf("full associativity (%v) should beat the thrashing 2-way (%v)", fa, plain)
	}
}

func TestCacheTLBShapes(t *testing.T) {
	tbl, err := CacheTLB(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"li", "matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		phys := cellF(t, tbl, r, 2)
		virt := cellF(t, tbl, r, 3)
		if virt > phys+1e-9 {
			t.Errorf("%s: virtual-tag CPI (%v) cannot exceed physical-tag (%v)",
				tbl.Cell(r, 0), virt, phys)
		}
		miss := cellF(t, tbl, r, 1)
		if miss <= 0 || miss >= 100 {
			t.Errorf("%s: L1 miss%% = %v implausible", tbl.Cell(r, 0), miss)
		}
	}
}

func TestPoliciesShapes(t *testing.T) {
	tbl, err := Policies(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"li", "worm"}}))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for r := 0; r < tbl.Rows(); r++ {
		rows[tbl.Cell(r, 0)] = r
	}
	// The static oracle never does much worse than the dynamic policy on
	// CPI (it has perfect knowledge of dense chunks).
	for name, r := range rows {
		dyn, static := cellF(t, tbl, r, 1), cellF(t, tbl, r, 2)
		if static > dyn*1.3+0.05 {
			t.Errorf("%s: static oracle CPI %v much worse than dynamic %v", name, static, dyn)
		}
	}
	// All WS normalizations stay within the policy bound.
	for name, r := range rows {
		for c := 4; c <= 6; c++ {
			if v := cellF(t, tbl, r, c); v < 0.5 || v > 2.2 {
				t.Errorf("%s col %d: WSn %v implausible", name, c, v)
			}
		}
	}
}

func TestAccessCostShapes(t *testing.T) {
	tbl, err := AccessCost(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"matrix300", "tomcatv"}}))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Rows(); r++ {
		name := tbl.Cell(r, 0)
		par := cellF(t, tbl, r, 1)
		seq := cellF(t, tbl, r, 2)
		lvl := cellF(t, tbl, r, 4)
		if seq <= par {
			t.Errorf("%s: sequential (%v) must cost more than parallel (%v)", name, seq, par)
		}
		if lvl >= par+1 {
			t.Errorf("%s: two-level (%v) should be competitive with parallel (%v)", name, lvl, par)
		}
	}
}

func TestDesignSpaceShapes(t *testing.T) {
	tbl, err := DesignSpace(context.Background(), topts(Options{Scale: 0.03, Workloads: []string{"li"}}))
	if err != nil {
		t.Fatal(err) // includes the internal sweep-vs-direct cross-check
	}
	if tbl.Cell(0, 1) != "96" {
		t.Fatalf("configs = %s", tbl.Cell(0, 1))
	}
	// CPI falls with capacity along the FA column.
	if cellF(t, tbl, 0, 2) < cellF(t, tbl, 0, 3) {
		t.Fatal("8-entry CPI should exceed 16-entry CPI")
	}
}

func TestPhasesShapes(t *testing.T) {
	tbl, err := Phases(context.Background(), topts(Options{Scale: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 3 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// demote-on demotes; the others never do.
	if d := cellF(t, tbl, 0, 4); d <= 0 {
		t.Errorf("demote-on demotions = %v, want > 0", d)
	}
	if d := cellF(t, tbl, 1, 4); d != 0 {
		t.Errorf("demote-off demotions = %v", d)
	}
	// Demotion reduces the average working set vs demote-off.
	on, off := cellF(t, tbl, 0, 2), cellF(t, tbl, 1, 2)
	if on >= off {
		t.Errorf("demote-on WSS (%v) should be below demote-off (%v)", on, off)
	}
}

func TestSharedMemShapes(t *testing.T) {
	tbl, err := SharedMem(context.Background(), topts(Options{Scale: 0.03}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 6 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// Two-page rows always have far lower TLB miss rates.
	for r := 0; r < tbl.Rows(); r += 2 {
		m4, m2 := cellF(t, tbl, r, 3), cellF(t, tbl, r+1, 3)
		if m2 >= m4 {
			t.Errorf("row %d: two-page TLB miss%% (%v) should be below 4KB (%v)", r, m2, m4)
		}
	}
	// Tightest memory: both policies fault, two-page no more than 4KB
	// (large pages fault in 8 blocks at once).
	f4, f2 := cellF(t, tbl, 4, 4), cellF(t, tbl, 5, 4)
	if f4 <= 0 {
		t.Errorf("4KB under pressure should fault (got %v)", f4)
	}
	if f2 > f4*1.5 {
		t.Errorf("two-page faults (%v) should not explode vs 4KB (%v)", f2, f4)
	}
}

func TestDiskIOShapes(t *testing.T) {
	tbl, err := DiskIO(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// The two-page scheme must pay less total IO time: fewer positioned
	// transfers for the same data.
	io4, io2 := cellF(t, tbl, 0, 4), cellF(t, tbl, 1, 4)
	if io2 >= io4 {
		t.Errorf("two-page IO ms (%v) should be below 4KB (%v)", io2, io4)
	}
	f4, f2 := cellF(t, tbl, 0, 2), cellF(t, tbl, 1, 2)
	if f2 >= f4 {
		t.Errorf("two-page faults (%v) should be below 4KB (%v)", f2, f4)
	}
}

func TestProtectShapes(t *testing.T) {
	tbl, err := Protect(context.Background(), topts(Options{Scale: 0.05, Workloads: []string{"li"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// True faults identical across schemes (same protected set, same
	// stores); spurious zero at 4KB and with the veto, positive at 32KB.
	trueF := cellF(t, tbl, 0, 2)
	for r := 1; r < 4; r++ {
		if got := cellF(t, tbl, r, 2); got != trueF {
			t.Errorf("row %d: true faults %v != %v", r, got, trueF)
		}
	}
	if sp := cellF(t, tbl, 0, 3); sp != 0 {
		t.Errorf("4KB spurious = %v", sp)
	}
	if sp := cellF(t, tbl, 1, 3); sp <= 0 {
		t.Errorf("32KB spurious = %v, want > 0", sp)
	}
	if sp := cellF(t, tbl, 3, 3); sp != 0 {
		t.Errorf("veto spurious = %v, want 0", sp)
	}
}

func TestFig52Shapes(t *testing.T) {
	tbl, err := Fig52(context.Background(), topts(Options{Scale: 0.04, Workloads: []string{"espresso", "matrix300"}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 4 { // 2 programs x 2 entry counts
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for r := 0; r < tbl.Rows(); r++ {
		name := tbl.Cell(r, 0)
		cpi4 := cellF(t, tbl, r, 2)
		two := cellF(t, tbl, r, 5)
		switch name {
		case "matrix300":
			if two >= cpi4 {
				t.Errorf("matrix300 row %d: two-page (%v) should beat 4KB (%v)", r, two, cpi4)
			}
		case "espresso":
			if two <= cpi4 {
				t.Errorf("espresso row %d: two-page (%v) should degrade vs 4KB (%v)", r, two, cpi4)
			}
		}
	}
}
