package wss

import (
	"fmt"
	"math"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/window"
)

// DefaultSampleEvery is the sampling period (in references) used by the
// N-size working-set calculator when the caller passes 0.
const DefaultSampleEvery = 256

// Sampled estimates the average working-set size s(T, ps) of any
// multi-size policy. The two-size calculator maintains w(t)
// incrementally through window hooks, but with N classes a single block
// entering or leaving the window can change the covering page at any
// level, and a policy without a window (Napot, Region) has no hooks
// to offer, so instead the instantaneous size is recomputed from
// scratch every `every` references:
//
//	w(t) = Σ_regions size(top mapped class covering the region)
//	     + 4KB × (active blocks under no mapping)
//
// walking the window's active chunks in ascending order and counting
// each covering upper-class region once; with two classes each region
// is one chunk, so the walk takes the chunks in any order. Sampling every 256 references
// keeps the cost below one table probe per reference amortized while
// the estimate stays within sampling noise of the exact average (the
// window only turns over fully every T references, T >> 256).
//
// The window is the policy's own when it has length T and the class-1
// chunk shift (a Ladder or TwoSize built with the same T); otherwise
// the calculator keeps one of its own and steps it with every
// reference.
type Sampled struct {
	pol     policy.MultiSize
	classes addr.SizeClasses
	win     *window.Tracker
	own     bool // Step advances win: it is not the policy's
	every   uint64

	steps   uint64
	left    uint64 // steps until the next sample
	samples uint64
	acc     float64
}

// windowed is a policy that exposes its sliding window.
type windowed interface {
	Window() *window.Tracker
}

// NewSampled attaches a sampled working-set calculator over the last T
// references to pol. every is the sampling period in references; 0
// means DefaultSampleEvery. T must be positive and fit the window's
// uint32 count, and pol's hierarchy must be one a window can group: the
// 4KB block first and a class-1 shift of at most window.MaxChunkShift.
func NewSampled(pol policy.MultiSize, T int, every uint64) (*Sampled, error) {
	if T <= 0 || uint64(T) > math.MaxUint32 {
		return nil, fmt.Errorf("wss: sampled window T %d out of range [1,%d]", T, uint32(math.MaxUint32))
	}
	classes := pol.SizeClasses()
	if classes.N() < 2 || classes.Shift(0) != addr.BlockShift || classes.Shift(1) > window.MaxChunkShift {
		return nil, fmt.Errorf("wss: a window cannot group %q's classes %v", pol.Name(), classes)
	}
	shift := classes.Shift(1)
	if every == 0 {
		every = DefaultSampleEvery
	}
	s := &Sampled{pol: pol, classes: classes, every: every, left: every}
	if w, ok := pol.(windowed); ok && w.Window().T() == T && w.Window().ChunkShift() == shift {
		s.win = w.Window()
	} else {
		s.win, s.own = window.NewWithChunkShift(T, shift), true
	}
	return s, nil
}

// Step advances time by one reference, sampling the instantaneous
// working-set size once per period. Call it after the policy's Assign
// of va.
//
//paperlint:hot
func (s *Sampled) Step(va addr.VA) {
	if s.own {
		s.win.StepVA(va)
	}
	s.steps++
	// A countdown rather than steps%every: the period is not a
	// constant, so the remainder would cost a division per reference.
	if s.left--; s.left == 0 {
		s.left = s.every
		s.acc += float64(s.Current()) //paperlint:ignore hotalloc Current runs once per sample period; its callback does not escape and the window's sorted-key scratch grows only at a new active-chunk peak, so a warmed-up Current allocates nothing (TestSampledCurrentAllocs)
		s.samples++
	}
}

// Current recomputes the instantaneous working-set size in bytes.
func (s *Sampled) Current() uint64 {
	var bytes uint64
	if s.classes.N() == 2 {
		// Every class-1 region is one window chunk, so no region can be
		// counted twice, and the integer sum needs no order: walk the
		// window's live records as they lie.
		large := uint64(s.classes.Size(1))
		s.win.Chunks(func(c addr.PN, blocks int) {
			if s.pol.TopMappedClass(c) == 0 {
				bytes += uint64(blocks) * addr.BlockSize
			} else {
				bytes += large
			}
		})
		return bytes
	}
	// ActiveChunks iterates class-1 regions ascending, so each upper
	// region's chunks arrive consecutively: remembering the last-counted
	// region per class is enough to count it exactly once.
	var seen [addr.MaxSizeClasses]addr.PN
	for k := range seen {
		seen[k] = ^addr.PN(0)
	}
	s.win.ActiveChunks(func(c addr.PN, blocks int) {
		k := s.pol.TopMappedClass(c)
		if k == 0 {
			bytes += uint64(blocks) * addr.BlockSize
			return
		}
		r := s.classes.Up(c, 1, k)
		if r != seen[k] {
			bytes += uint64(s.classes.Size(k))
			seen[k] = r
		}
	})
	return bytes
}

// Result returns the sampled average working-set size so far.
func (s *Sampled) Result() Result {
	var avg float64
	if s.samples > 0 {
		avg = s.acc / float64(s.samples)
	}
	return Result{Scheme: s.pol.Name(), AvgBytes: avg}
}

// Steps returns how many references have been observed.
func (s *Sampled) Steps() uint64 { return s.steps }

// Samples returns how many instantaneous sizes were taken.
func (s *Sampled) Samples() uint64 { return s.samples }
