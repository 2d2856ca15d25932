package wss

import (
	"twopage/internal/addr"
	"twopage/internal/policy"
)

// DefaultSampleEvery is the sampling period (in references) used by the
// N-size working-set calculator when the caller passes 0.
const DefaultSampleEvery = 256

// Sampled estimates the average working-set size of an N-level ladder
// policy. The two-size calculator maintains w(t) incrementally through
// window hooks, but with N classes a single block entering or leaving
// the window can change the covering page at any level, so instead the
// instantaneous size is recomputed from scratch every `every`
// references:
//
//	w(t) = Σ_regions size(top mapped class covering the region)
//	     + 4KB × (active blocks under no mapping)
//
// walking the window's active chunks in ascending order and counting
// each covering upper-class region once. Sampling every 256 references
// keeps the cost below one table probe per reference amortized while
// the estimate stays within sampling noise of the exact average (the
// window only turns over fully every T references, T >> 256).
type Sampled struct {
	pol   *policy.Ladder
	every uint64

	steps   uint64
	samples uint64
	acc     float64
}

// NewSampled attaches a sampled working-set calculator to pol. every is
// the sampling period in references; 0 means DefaultSampleEvery.
func NewSampled(pol *policy.Ladder, every uint64) *Sampled {
	if every == 0 {
		every = DefaultSampleEvery
	}
	return &Sampled{pol: pol, every: every}
}

// Step advances time by one reference, sampling the instantaneous
// working-set size once per period. Call it after each policy Assign.
//
//paperlint:hot
func (s *Sampled) Step() {
	s.steps++
	if s.steps%s.every == 0 {
		s.acc += float64(s.Current()) //paperlint:ignore hotalloc Current runs once per sample period; its callback does not escape and the window's sorted-key scratch grows only at a new active-chunk peak, so a warmed-up Current allocates nothing (TestSampledCurrentAllocs)
		s.samples++
	}
}

// Current recomputes the instantaneous working-set size in bytes.
func (s *Sampled) Current() uint64 {
	classes := s.pol.SizeClasses()
	win := s.pol.Window()
	var bytes uint64
	// ActiveChunks iterates class-1 regions ascending, so each upper
	// region's chunks arrive consecutively: remembering the last-counted
	// region per class is enough to count it exactly once.
	var seen [addr.MaxSizeClasses]addr.PN
	for k := range seen {
		seen[k] = ^addr.PN(0)
	}
	win.ActiveChunks(func(c addr.PN, blocks int) {
		k := s.pol.TopMappedClass(c)
		if k == 0 {
			bytes += uint64(blocks) * addr.BlockSize
			return
		}
		r := classes.Up(c, 1, k)
		if r != seen[k] {
			bytes += uint64(classes.Size(k))
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
