package workload

import (
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/trace"
)

// Spec describes one of the twelve modelled programs.
type Spec struct {
	// Name is the program name as used in the paper's tables.
	Name string
	// Description summarizes the behavioural model.
	Description string
	// DefaultRefs is the trace length used at scale 1.0.
	DefaultRefs uint64
	// LargeWS marks the paper's "large programs" class (working set
	// > 1MB, Section 5).
	LargeWS bool
	// New builds a fresh deterministic generator producing refs
	// references.
	New func(refs uint64) trace.Reader
	// File is the backing trace for workloads registered with
	// RegisterFile, nil for generated programs. A non-nil File is
	// what makes a workload shardable: sections of the trace can be
	// simulated independently and merged (engine.RunSharded).
	File *trace.File
}

const (
	kb = 1 << 10
	mb = 1 << 20

	codeBase = addr.VA(0x0100_0000)
	dataBase = addr.VA(0x1000_0000)
	heapBase = addr.VA(0x2000_0000)
)

// specs lists the programs in the paper's order (ascending working-set
// size, Table 5.1): six "small" then six "large".
var specs = []Spec{
	{
		Name: "li",
		Description: "lisp interpreter: cons-cell segments (dense 16KB " +
			"arenas, chunk-aligned) plus scattered single-block objects; " +
			"sparse address space makes working set balloon with page size",
		DefaultRefs: 6_000_000,
		New:         newLi,
	},
	{
		Name: "espresso",
		Description: "logic minimizer: many single-block cube structures " +
			"(never promoted) plus one dense table; high temporal locality " +
			"in a small region, so two page sizes mostly add miss penalty",
		DefaultRefs: 5_000_000,
		New:         newEspresso,
	},
	{
		Name: "fpppp",
		Description: "quantum chemistry: very large instruction footprint " +
			"(dense code pages promote well) over a modest dense data set",
		DefaultRefs: 6_000_000,
		New:         newFpppp,
	},
	{
		Name: "doduc",
		Description: "Monte Carlo reactor simulation: many mid-size dense " +
			"arrays (6 of 8 blocks per chunk) with skewed strided access",
		DefaultRefs: 6_000_000,
		New:         newDoduc,
	},
	{
		Name: "x11perf",
		Description: "X server benchmark: vertical-line rasterization " +
			"(large-stride column walks over a framebuffer) plus copies; " +
			"dense regions promote and large pages win big",
		DefaultRefs: 7_000_000,
		New:         newX11perf,
	},
	{
		Name: "eqntott",
		Description: "truth-table generator: parallel sequential scans of " +
			"two bit-vector arrays with a random hash table",
		DefaultRefs: 8_000_000,
		New:         newEqntott,
	},
	{
		Name: "worm",
		Description: "simulation with 3-block (12KB) regions on 32KB " +
			"boundaries: just under the promotion threshold, so the " +
			"two-page scheme pays the penalty without using large pages",
		DefaultRefs: 8_000_000,
		LargeWS:     true,
		New:         newWorm,
	},
	{
		Name: "nasa7",
		Description: "seven numeric kernels: column walks, parallel " +
			"sequential sweeps and scattered butterflies over dense " +
			"multi-hundred-KB matrices; promotes heavily",
		DefaultRefs: 10_000_000,
		LargeWS:     true,
		New:         newNasa7,
	},
	{
		Name: "xnews",
		Description: "news/X server mix: streaming scans, a dense shared " +
			"region and scattered per-client state",
		DefaultRefs: 8_000_000,
		LargeWS:     true,
		New:         newXnews,
	},
	{
		Name: "matrix300",
		Description: "300x300 matrix multiply: column walk through B " +
			"touches a new 4KB page nearly every reference; dense " +
			"matrices promote fully, the paper's headline large-page win",
		DefaultRefs: 12_000_000,
		LargeWS:     true,
		New:         newMatrix300,
	},
	{
		Name: "tomcatv",
		Description: "vectorized mesh generation: seven 512KB arrays " +
			"spaced 516KB apart walked at a common index — all seven " +
			"collide in the large-page-index bits, thrashing any two-way " +
			"scheme that indexes with them (paper Section 5.2's anomaly)",
		DefaultRefs: 10_000_000,
		LargeWS:     true,
		New:         newTomcatv,
	},
	{
		Name: "verilog",
		Description: "event-driven gate simulation: pointer chasing over " +
			"a clustered netlist plus event queue scans and dense value " +
			"arrays; the largest working set",
		DefaultRefs: 9_000_000,
		LargeWS:     true,
		New:         newVerilog,
	},
}

// Names returns the program names in the paper's order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// All returns all specs in the paper's order.
func All() []Spec { return append([]Spec(nil), specs...) }

// Get returns the spec for name.
func Get(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown program %q", name)
}

// MustNew builds a generator for the named program, panicking on unknown
// names. refs == 0 uses the spec's default length.
func MustNew(name string, refs uint64) trace.Reader {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	if refs == 0 {
		refs = s.DefaultRefs
	}
	return s.New(refs)
}

// seedFor gives each program a fixed seed so traces are reproducible.
func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func newLi(refs uint64) trace.Reader {
	r := newRNG(seedFor("li"))
	// 10 dense cons-cell arenas of 24KB (6 of 8 blocks: promoted with a
	// 32/24 = 1.33x size cost, keeping li's two-page working-set growth
	// near the paper's range).
	arenas := scatterClusters(&r, heapBase, 8*mb, 10, 24*kb, addr.ChunkSize)
	jitterWithinChunk(&r, arenas, 24*kb)
	// 40 scattered single-block objects, one per chunk, over 16MB: these
	// are what makes li's working set balloon with page size.
	singles := scatterClusters(&r, heapBase+addr.VA(16*mb), 16*mb, 40, 4*kb, addr.ChunkSize)
	jitterWithinChunk(&r, singles, 4*kb)
	code := newCodeWalker(codeBase, 6, 1024, 4096, 4*kb)
	return newProgram(seedFor("li"), code, 0.35, refs, []weighted{
		{s: &clusterStream{clusters: arenas, size: 24 * kb, align: 8,
			hotFrac: 0.3, hotProb: 0.75, burstLen: 12}, weight: 0.70, store: 0.30},
		{s: &clusterStream{clusters: singles, size: 4 * kb, align: 8,
			hotFrac: 0.25, hotProb: 0.8, burstLen: 6}, weight: 0.20, store: 0.15},
		{s: &uniformStream{base: dataBase, size: 8 * kb, align: 8}, weight: 0.10, store: 0.5},
	})
}

func newEspresso(refs uint64) trace.Reader {
	r := newRNG(seedFor("espresso"))
	// 48 single-block cube structures scattered one per chunk: high
	// temporal locality, never promoted.
	cubes := scatterClusters(&r, heapBase, 12*mb, 48, 4*kb, addr.ChunkSize)
	jitterWithinChunk(&r, cubes, 4*kb)
	code := newCodeWalker(codeBase, 4, 1024, 8192, 4*kb)
	return newProgram(seedFor("espresso"), code, 0.33, refs, []weighted{
		{s: &clusterStream{clusters: cubes, size: 4 * kb, align: 4,
			hotFrac: 0.2, hotProb: 0.85, burstLen: 24}, weight: 0.60, store: 0.25},
		// One dense 64KB table (2 chunks, promoted).
		{s: &uniformStream{base: dataBase, size: 64 * kb, align: 8}, weight: 0.25, store: 0.2},
		// A dense 96KB bit-matrix walked with a 96B stride.
		{s: &seqStream{base: dataBase + addr.VA(mb), size: 96 * kb, stride: 96}, weight: 0.15},
	})
}

func newFpppp(refs uint64) trace.Reader {
	// 32 functions of 1024 instructions each = 128KB of dense code: the
	// famous fpppp instruction footprint. Long visits keep locality high
	// but the footprint still cycles through all 32 pages.
	code := newCodeWalker(codeBase, 32, 1024, 3072, 4*kb)
	return newProgram(seedFor("fpppp"), code, 0.30, refs, []weighted{
		// Dense 256KB integral tables, hot-skewed.
		{s: &uniformStream{base: dataBase, size: 256 * kb, align: 8}, weight: 0.55, store: 0.25},
		// 64KB coefficient array scanned with a 64B stride.
		{s: &seqStream{base: dataBase + addr.VA(mb), size: 64 * kb, stride: 64}, weight: 0.35},
		{s: &uniformStream{base: dataBase + addr.VA(2*mb), size: 16 * kb, align: 8}, weight: 0.10, store: 0.5},
	})
}

func newDoduc(refs uint64) trace.Reader {
	r := newRNG(seedFor("doduc"))
	// 20 dense arrays of 24KB (6 of 8 blocks per chunk: above threshold).
	arrays := scatterClusters(&r, heapBase, 16*mb, 20, 24*kb, addr.ChunkSize)
	jitterWithinChunk(&r, arrays, 24*kb)
	singles := scatterClusters(&r, heapBase+addr.VA(24*mb), 8*mb, 24, 4*kb, addr.ChunkSize)
	jitterWithinChunk(&r, singles, 4*kb)
	code := newCodeWalker(codeBase, 16, 1024, 2048, 4*kb)
	return newProgram(seedFor("doduc"), code, 0.32, refs, []weighted{
		{s: &clusterStream{clusters: arrays, size: 24 * kb, align: 8,
			hotFrac: 0.35, hotProb: 0.7, burstLen: 10}, weight: 0.60, store: 0.3},
		{s: &clusterStream{clusters: singles, size: 4 * kb, align: 8,
			hotFrac: 0.3, hotProb: 0.8, burstLen: 8}, weight: 0.20, store: 0.2},
		{s: &seqStream{base: dataBase, size: 128 * kb, stride: 136}, weight: 0.20},
	})
}

func newX11perf(refs uint64) trace.Reader {
	code := newCodeWalker(codeBase, 8, 1024, 4096, 4*kb)
	return newProgram(seedFor("x11perf"), code, 0.38, refs, []weighted{
		// Vertical-line draws: 512 rows of a 1280-byte-pitch framebuffer
		// (640KB): consecutive stores 1280B apart → a new 4KB page every
		// ~3 references, a new 32KB page every ~26.
		{s: &colWalk{base: dataBase, rows: 512, cols: 320, rowBytes: 1280, elem: 4},
			weight: 0.30, store: 0.85},
		// Block copies: dense sequential scan.
		{s: &seqStream{base: dataBase + addr.VA(mb), size: 256 * kb, stride: 16},
			weight: 0.35, store: 0.5},
		// Request/GC state: small hot region.
		{s: &uniformStream{base: dataBase + addr.VA(2*mb), size: 24 * kb, align: 8},
			weight: 0.35, store: 0.3},
	})
}

func newEqntott(refs uint64) trace.Reader {
	code := newCodeWalker(codeBase, 4, 768, 8192, 4*kb)
	return newProgram(seedFor("eqntott"), code, 0.34, refs, []weighted{
		// cmppt: two 384KB pterm arrays compared in lockstep, 128B apart.
		{s: &roundRobin{
			bases: []addr.VA{dataBase, dataBase + addr.VA(mb)},
			size:  384 * kb, stride: 128, elem: 8, burst: 2},
			weight: 0.55, store: 0.1},
		// Hash lookups over a dense 128KB table.
		{s: &uniformStream{base: dataBase + addr.VA(4*mb), size: 128 * kb, align: 16},
			weight: 0.25},
		{s: &uniformStream{base: dataBase + addr.VA(5*mb), size: 16 * kb, align: 8},
			weight: 0.20, store: 0.4},
	})
}

func newWorm(refs uint64) trace.Reader {
	r := newRNG(seedFor("worm"))
	// 96 regions of exactly 3 blocks (12KB) on chunk boundaries: one
	// block below the promotion threshold, so the dynamic policy never
	// promotes them — the paper's "insufficient use of large pages".
	regions := scatterClusters(&r, heapBase, 24*mb, 96, 12*kb, addr.ChunkSize)
	jitterWithinChunk(&r, regions, 12*kb)
	code := newCodeWalker(codeBase, 6, 1024, 4096, 4*kb)
	return newProgram(seedFor("worm"), code, 0.35, refs, []weighted{
		{s: &clusterStream{clusters: regions, size: 12 * kb, align: 8,
			hotFrac: 0.25, hotProb: 0.6, burstLen: 18}, weight: 0.80, store: 0.3},
		// Misc state kept at 2 blocks so it, too, stays unpromoted.
		{s: &uniformStream{base: dataBase, size: 8 * kb, align: 8}, weight: 0.20, store: 0.4},
	})
}

func newNasa7(refs uint64) trace.Reader {
	code := newCodeWalker(codeBase, 12, 1024, 3072, 4*kb)
	return newProgram(seedFor("nasa7"), code, 0.36, refs, []weighted{
		// Column walk over a 448KB matrix (1024B pitch).
		{s: &colWalk{base: dataBase, rows: 448, cols: 128, rowBytes: 1024, elem: 8},
			weight: 0.30, store: 0.2},
		// Parallel sweeps over two 384KB arrays.
		{s: &roundRobin{
			bases: []addr.VA{dataBase + addr.VA(mb), dataBase + addr.VA(2*mb)},
			size:  384 * kb, stride: 64, elem: 8, burst: 2},
			weight: 0.30, store: 0.3},
		// FFT butterflies: scattered within a dense 256KB array.
		{s: &uniformStream{base: dataBase + addr.VA(3*mb), size: 256 * kb, align: 16},
			weight: 0.25, store: 0.3},
		{s: &uniformStream{base: dataBase + addr.VA(4*mb), size: 32 * kb, align: 8},
			weight: 0.15, store: 0.4},
	})
}

func newXnews(refs uint64) trace.Reader {
	r := newRNG(seedFor("xnews"))
	clients := scatterClusters(&r, heapBase, 16*mb, 48, 8*kb, addr.ChunkSize)
	jitterWithinChunk(&r, clients, 8*kb)
	code := newCodeWalker(codeBase, 16, 1024, 2048, 4*kb)
	return newProgram(seedFor("xnews"), code, 0.34, refs, []weighted{
		// Article/stream scans.
		{s: &seqStream{base: dataBase, size: 384 * kb, stride: 48}, weight: 0.25, store: 0.2},
		// Dense shared caches.
		{s: &uniformStream{base: dataBase + addr.VA(mb), size: 512 * kb, align: 16},
			weight: 0.20, store: 0.25},
		// Per-client scattered state (2 blocks per chunk: not promoted).
		{s: &clusterStream{clusters: clients, size: 8 * kb, align: 8,
			hotFrac: 0.25, hotProb: 0.7, burstLen: 12}, weight: 0.35, store: 0.3},
		// Rasterization bursts.
		{s: &colWalk{base: dataBase + addr.VA(3*mb), rows: 256, cols: 128, rowBytes: 640, elem: 4},
			weight: 0.20, store: 0.8},
	})
}

func newMatrix300(refs uint64) trace.Reader {
	const rowBytes = 300 * 8 // 2400
	const matBytes = 300 * rowBytes
	code := newCodeWalker(codeBase, 2, 512, 16384, 4*kb)
	return newProgram(seedFor("matrix300"), code, 0.40, refs, []weighted{
		// B column walk: the page-per-reference killer.
		{s: &colWalk{base: dataBase + addr.VA(mb), rows: 300, cols: 300,
			rowBytes: rowBytes, elem: 8}, weight: 0.45},
		// A row scan.
		{s: &seqStream{base: dataBase, size: matBytes, stride: 8}, weight: 0.40},
		// C writeback, slower scan.
		{s: &seqStream{base: dataBase + addr.VA(2*mb), size: matBytes, stride: 16},
			weight: 0.15, store: 0.9},
	})
}

func newTomcatv(refs uint64) trace.Reader {
	// Seven 512KB arrays spaced 516KB apart. 516KB = 16.125 × 32KB, so at
	// equal logical offsets all seven arrays share large-page-index bits
	// modulo any power-of-two set count up to 16 (k·516KB mod 256KB =
	// k·4KB, which never reaches bit 15), while their small-page-index
	// bits differ by k — exactly the geometry that makes tomcatv thrash
	// two-way TLBs indexed by the large page number but behave under the
	// small-page index (paper Table 5.1).
	const spacing = 516 * kb
	bases := make([]addr.VA, 7)
	for i := range bases {
		bases[i] = dataBase + addr.VA(i*spacing)
	}
	code := newCodeWalker(codeBase, 4, 1024, 8192, 4*kb)
	return newProgram(seedFor("tomcatv"), code, 0.36, refs, []weighted{
		{s: &roundRobin{bases: bases, size: 512 * kb, stride: 520, elem: 8, burst: 3},
			weight: 0.85, store: 0.35},
		{s: &uniformStream{base: dataBase + addr.VA(8*mb), size: 32 * kb, align: 8},
			weight: 0.15, store: 0.4},
	})
}

func newVerilog(refs uint64) trace.Reader {
	r := newRNG(seedFor("verilog"))
	// Netlist: 72 clusters of 24KB (promoted) holding 64B gate nodes;
	// the chase order hops between clusters like netlist connectivity.
	clusters := scatterClusters(&r, heapBase, 24*mb, 72, 24*kb, addr.ChunkSize)
	jitterWithinChunk(&r, clusters, 24*kb)
	nodes := make([]addr.VA, 4096)
	for i := range nodes {
		c := clusters[r.intn(uint64(len(clusters)))]
		nodes[i] = c + addr.VA(r.intn(24*kb/64)*64)
	}
	code := newCodeWalker(codeBase, 24, 1024, 2048, 4*kb)
	return newProgram(seedFor("verilog"), code, 0.33, refs, []weighted{
		{s: &chaseStream{order: nodes, burst: 4, span: 16}, weight: 0.45, store: 0.3},
		// Event queue.
		{s: &seqStream{base: dataBase, size: 128 * kb, stride: 32}, weight: 0.25, store: 0.5},
		// Dense value arrays.
		{s: &uniformStream{base: dataBase + addr.VA(mb), size: 768 * kb, align: 8},
			weight: 0.30, store: 0.3},
	})
}
