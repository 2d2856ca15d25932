// Package workload generates the synthetic SPARC-like reference streams
// that stand in for the paper's twelve traced programs (Table 3.1).
//
// The original traces were produced by running SPEC-era binaries under
// Sun's shade/shadow tracers; neither the tools nor the binaries/inputs
// are obtainable, so each program is modelled as a deterministic
// generator composed from primitive access patterns — sequential
// instruction fetch with loop structure, dense linear sweeps, strided
// column walks, round-robin multi-array walks, pointer chasing over a
// clustered heap, and skewed random lookups. The composition and region
// geometry of each program are chosen to match its published
// characteristics: working-set size class, spatial-locality class
// (working-set growth with page size, Figure 4.1), page-size-assignment
// behaviour (how much of its traffic the promotion policy moves to large
// pages), and TLB-conflict geometry (e.g. tomcatv's large-page-index
// thrashing). See DESIGN.md for the substitution argument and
// programs.go for the per-program models.
//
// Generators implement trace.Reader, are deterministic for a given
// (name, refs) pair, and emit instruction fetches interleaved with data
// references so that RPI (references per instruction) is meaningful.
package workload

import (
	"fmt"
	"io"
	"math"

	"twopage/internal/addr"
	"twopage/internal/trace"
)

// rng is a splitmix64 generator: tiny, fast, and deterministic across
// platforms (unlike math/rand's unspecified stream evolution).
type rng struct{ s uint64 }

func newRNG(seed uint64) rng { return rng{s: seed ^ 0x9E3779B97F4A7C15} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n). n must be > 0.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// stream is a primitive data-access pattern. Each call produces the next
// virtual address of the pattern.
type stream interface {
	next(r *rng) addr.VA
}

// seqStream scans [base, base+size) with a fixed stride, wrapping to the
// start: the linear looping traversal of programs like matrix300's row
// accesses or x11perf's copy loops.
type seqStream struct {
	base   addr.VA
	size   uint64
	stride uint64
	pos    uint64
}

func (s *seqStream) next(*rng) addr.VA {
	va := s.base + addr.VA(s.pos)
	s.pos += s.stride
	if s.pos >= s.size {
		s.pos -= s.size
	}
	return va
}

// colWalk walks a rows×cols matrix in column-major order over a
// row-major layout: consecutive references are rowBytes apart, the
// pattern that makes matrix300 and nasa7 touch a new 4KB page almost
// every reference (Section 5.2 of the paper).
type colWalk struct {
	base     addr.VA
	rows     uint64
	cols     uint64
	rowBytes uint64
	elem     uint64
	r, c     uint64
}

func (w *colWalk) next(*rng) addr.VA {
	va := w.base + addr.VA(w.r*w.rowBytes+w.c*w.elem)
	w.r++
	if w.r == w.rows {
		w.r = 0
		w.c++
		if w.c == w.cols {
			w.c = 0
		}
	}
	return va
}

// roundRobin visits several equally sized arrays at the same logical
// offset, a burst of consecutive elements per array before moving to the
// next array, advancing the offset once per full cycle. This is the
// tomcatv inner-loop shape: seven arrays indexed by the same induction
// variable. With array spacing chosen as in programs.go, all arrays
// collide in the large-page-index bits while spreading under the
// small-page index.
type roundRobin struct {
	bases  []addr.VA
	size   uint64
	stride uint64 // offset advance per full cycle
	elem   uint64 // element step within a burst
	burst  int    // consecutive refs per array visit
	pos    uint64
	cur    int
	b      int
}

func (s *roundRobin) next(*rng) addr.VA {
	va := s.bases[s.cur] + addr.VA(s.pos+uint64(s.b)*s.elem)
	s.b++
	if s.b == s.burst {
		s.b = 0
		s.cur++
		if s.cur == len(s.bases) {
			s.cur = 0
			s.pos += s.stride
			if s.pos+uint64(s.burst)*s.elem >= s.size {
				s.pos = 0
			}
		}
	}
	return va
}

// uniformStream picks uniformly random aligned addresses in
// [base, base+size): hash tables, FFT butterflies, scattered updates.
type uniformStream struct {
	base  addr.VA
	size  uint64
	align uint64
}

func (s *uniformStream) next(r *rng) addr.VA {
	return s.base + addr.VA(r.intn(s.size/s.align)*s.align)
}

// clusterStream models traffic over scattered fixed-size clusters
// (allocation arenas, cons-cell segments, netlist node groups). Cluster
// choice is skewed: with probability hotProb the reference goes to the
// hot prefix (hotFrac of the clusters), modelling temporal locality.
// Within a cluster, references burst: burstLen consecutive references
// stay in the cluster at random aligned offsets.
type clusterStream struct {
	clusters []addr.VA
	size     uint64 // bytes per cluster
	align    uint64
	hotFrac  float64
	hotProb  float64
	burstLen int

	cur   int
	burst int
}

func (s *clusterStream) next(r *rng) addr.VA {
	if s.burst == 0 {
		n := len(s.clusters)
		hot := int(math.Max(1, s.hotFrac*float64(n)))
		if r.float() < s.hotProb {
			s.cur = int(r.intn(uint64(hot)))
		} else {
			s.cur = int(r.intn(uint64(n)))
		}
		s.burst = s.burstLen
	}
	s.burst--
	return s.clusters[s.cur] + addr.VA(r.intn(s.size/s.align)*s.align)
}

// chaseStream walks a fixed pseudo-random cyclic permutation of node
// addresses: pointer chasing with essentially no spatial locality beyond
// the node layout itself, in bursts (a node and its neighbours) to model
// object traversal.
type chaseStream struct {
	order []addr.VA
	burst int
	cur   int
	b     int
	span  uint64 // bytes of the node touched per burst step
}

func (s *chaseStream) next(r *rng) addr.VA {
	va := s.order[s.cur] + addr.VA(uint64(s.b)*s.span)
	s.b++
	if s.b == s.burst {
		s.b = 0
		s.cur++
		if s.cur == len(s.order) {
			s.cur = 0
		}
	}
	return va
}

// codeWalker emits the instruction-fetch stream: sequential 4-byte
// fetches through a function's loop body, looping, and moving to the
// next function after visitLen instructions (calls/returns). Every
// function has the same body and function i sits at base + i*spacing,
// so the walker keeps only the current function's base.
type codeWalker struct {
	base      addr.VA // function 0
	spacing   addr.VA // distance between consecutive functions
	funcs     int
	body      int // instructions in each loop body
	visitLen  int
	cur       int     // current function
	curBase   addr.VA // its base: base + cur*spacing
	pc        int
	visitLeft int
}

func newCodeWalker(base addr.VA, nFuncs, bodyInstrs, visitLen int, spacing uint64) *codeWalker {
	return &codeWalker{base: base, spacing: addr.VA(spacing), funcs: nFuncs, body: bodyInstrs,
		visitLen: visitLen, curBase: base, visitLeft: visitLen}
}

func (c *codeWalker) next() addr.VA {
	va := c.curBase + addr.VA(4*c.pc)
	c.pc++
	if c.pc >= c.body {
		c.pc = 0
	}
	c.visitLeft--
	if c.visitLeft == 0 {
		c.visitLeft = c.visitLen
		c.cur++
		c.curBase += c.spacing
		if c.cur == c.funcs {
			c.cur = 0
			c.curBase = c.base
		}
		c.pc = 0
	}
	return va
}

// weighted couples a stream with its share of data references and its
// store fraction.
type weighted struct {
	s      stream
	weight float64
	store  float64
}

// program interleaves an instruction-fetch stream with data references
// drawn from weighted streams, at dataPerInstr data references per
// instruction. It implements trace.Reader and stops after refs total
// references.
type program struct {
	rng     rng
	code    *codeWalker
	dpi     float64
	streams []weighted
	cum     []float64

	carry    float64
	pending  int
	refsLeft uint64
}

func newProgram(seed uint64, code *codeWalker, dpi float64, refs uint64, streams []weighted) *program {
	total := 0.0
	for _, w := range streams {
		total += w.weight
	}
	cum := make([]float64, len(streams))
	acc := 0.0
	for i, w := range streams {
		acc += w.weight / total
		cum[i] = acc
	}
	return &program{
		rng:      newRNG(seed),
		code:     code,
		dpi:      dpi,
		streams:  streams,
		cum:      cum,
		refsLeft: refs,
	}
}

// Read implements trace.Reader.
func (p *program) Read(batch []trace.Ref) (int, error) {
	if p.refsLeft == 0 {
		return 0, io.EOF
	}
	n := len(batch)
	if uint64(n) > p.refsLeft {
		n = int(p.refsLeft)
	}
	for i := 0; i < n; i++ {
		if p.pending > 0 {
			p.pending--
			batch[i] = p.dataRef()
			continue
		}
		batch[i] = trace.Ref{Addr: p.code.next(), Kind: trace.Instr}
		p.carry += p.dpi
		for p.carry >= 1 {
			p.carry--
			p.pending++
		}
	}
	p.refsLeft -= uint64(n)
	if p.refsLeft == 0 {
		return n, io.EOF
	}
	return n, nil
}

func (p *program) dataRef() trace.Ref {
	u := p.rng.float()
	idx := len(p.streams) - 1
	for i, c := range p.cum {
		if u < c {
			idx = i
			break
		}
	}
	w := p.streams[idx]
	kind := trace.Load
	if w.store > 0 && p.rng.float() < w.store {
		kind = trace.Store
	}
	return trace.Ref{Addr: w.s.next(&p.rng), Kind: kind}
}

// jitterWithinChunk shifts each chunk-aligned cluster base by a random
// whole number of 4KB blocks such that a cluster of the given size stays
// inside its chunk. Real allocators place objects at diverse page
// offsets; without this, every scattered structure would share page
// index bits <14:12> = 0 and pile into one TLB set, an artifact no real
// trace exhibits.
func jitterWithinChunk(r *rng, clusters []addr.VA, size uint64) {
	maxShift := (addr.ChunkSize - size) / addr.BlockSize
	if maxShift == 0 {
		return
	}
	for i := range clusters {
		clusters[i] += addr.VA(r.intn(maxShift+1) * addr.BlockSize)
	}
}

// clusterBuckets splits span into buckets of whole cluster footprints:
// per is how many align units one cluster of size bytes covers, and
// buckets how many such footprints fit. Starts are aligned to buckets,
// so any configuration that fits by volume is placeable regardless of
// the random order — no fragmentation dead ends.
func clusterBuckets(span, size, align uint64) (buckets, per uint64) {
	per = max((size+align-1)/align, 1)
	return span / align / per, per
}

// scatterClusters places n cluster bases of the given size within
// [base, base+span), aligned to align, deterministically for seed, with
// no two clusters overlapping. Placement is random-first with an
// attempt cap, then falls back to scanning for a free run from a random
// origin, so tightly packed configurations terminate; it panics only if
// the clusters genuinely cannot fit.
func scatterClusters(r *rng, base addr.VA, span uint64, n int, size, align uint64) []addr.VA {
	buckets, per := clusterBuckets(span, size, align)
	if buckets == 0 || uint64(n) > buckets {
		panic(fmt.Sprintf("workload: cannot place %d clusters of %d bytes in a %d-byte span", n, size, span))
	}
	occupied := make([]bool, buckets)
	claim := func(b uint64) addr.VA {
		occupied[b] = true
		return base + addr.VA(b*per*align)
	}
	out := make([]addr.VA, 0, n)
	for len(out) < n {
		placed := false
		for attempt := 0; attempt < 32; attempt++ {
			b := r.intn(buckets)
			if !occupied[b] {
				out = append(out, claim(b))
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		// Dense regime: scan forward from a random origin.
		origin := r.intn(buckets)
		for i := uint64(0); i < buckets; i++ {
			b := (origin + i) % buckets
			if !occupied[b] {
				out = append(out, claim(b))
				placed = true
				break
			}
		}
		if !placed {
			panic(fmt.Sprintf("workload: no room for %d clusters of %d bytes in %d-byte span", n, size, span))
		}
	}
	return out
}
