package main

import "time"

// The host has slow phases, lasting from seconds to many minutes, in
// which all code, process CPU time included, runs up to 1.7 times
// slower. A run that sits wholly in one reads slow whatever statistic it
// takes over its own samples. So every end-to-end timing is taken
// relative to a calibration: a fixed piece of the benchmark's own work,
// run before every timed sample and once after the last. A sample's
// ratio to the mean of the calibrations on either side of it cancels
// most of the phase it ran in, and a run reports the median ratio,
// scaled back to seconds by nominalCalib.
//
// The calibration is a miniature of a simulation pass, with the same
// kinds of work as the simulator's per-reference layers: a stream of
// pseudo-random page numbers, mostly from a small hot set, looked up in
// a 32-set two-way tag array and counted in an open-addressing table of
// 4 MB. It calls nothing of the simulator, so no change to the simulator
// moves it.

const (
	calibSteps = 1 << 20
	calibSlots = 1 << 18 // table entries; at most 2^16 distinct pages keep it a quarter full
	// nominalCalib is the calibration's time, in seconds, on the host
	// the benchmark was made on (an Intel Xeon at 2.1 GHz) outside its
	// slow phases; the reported times are quoted at that speed.
	nominalCalib = 0.015
)

// calibrator is the calibration's state: its tables, allocated once.
type calibrator struct {
	keys, counts []uint64
	hits         uint64 // kept so the work cannot be optimized away
}

func newCalibrator() *calibrator {
	return &calibrator{keys: make([]uint64, calibSlots), counts: make([]uint64, calibSlots)}
}

// run runs the calibration once and returns its time in seconds.
func (k *calibrator) run() float64 {
	start := time.Now()
	clear(k.keys)
	clear(k.counts)
	var tags [64]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		page := (x>>58)<<1 | 1 // one of 64 hot pages
		if x&7 == 0 {
			page = x>>47 | 1 // one of 2^17 pages
		}
		set := (page & 31) * 2
		switch page {
		case tags[set]:
			k.hits++
		case tags[set+1]:
			k.hits++
			tags[set], tags[set+1] = tags[set+1], tags[set]
		default:
			tags[set], tags[set+1] = page, tags[set]
		}
		for h := (page * 0x9E3779B97F4A7C15) >> (64 - 18); ; h = (h + 1) & (calibSlots - 1) {
			if k.keys[h] == page {
				k.counts[h]++
				break
			}
			if k.keys[h] == 0 {
				k.keys[h], k.counts[h] = page, 1
				break
			}
		}
	}
	return time.Since(start).Seconds()
}

// clock keeps a run's calibrations and the timed samples between them.
type clock struct {
	cal         *calibrator
	calibs      []float64 // in the order run
	reps, setup series
}

// A series is the samples of one kind of timed work.
type series []sample

// sample is one timed piece of work and the index of the calibration
// run just before it.
type sample struct {
	secs float64
	at   int
}

func newClock() *clock { return &clock{cal: newCalibrator()} }

// calibrate runs the calibration. It must run before every sample and
// once after the last.
func (c *clock) calibrate() { c.calibs = append(c.calibs, c.cal.run()) }

// add records secs of work done since the last calibration.
func (c *clock) add(s *series, secs float64) {
	*s = append(*s, sample{secs, len(c.calibs) - 1})
}

// seconds returns the median of the series' samples, each divided by the
// mean of the calibrations on either side of it, in nominal seconds.
// Every sample must be followed by a calibration.
func (c *clock) seconds(s series) float64 {
	rs := make([]float64, len(s))
	for i, x := range s {
		rs[i] = x.secs / ((c.calibs[x.at] + c.calibs[x.at+1]) / 2)
	}
	return median(rs) * nominalCalib
}

// footprint is the bytes the clock holds on the heap: the calibration's
// tables and the samples.
func (c *clock) footprint() int {
	return 8*(cap(c.cal.keys)+cap(c.cal.counts)+cap(c.calibs)) + 16*(cap(c.reps)+cap(c.setup))
}

// raw returns the series' samples in host seconds.
func (s series) raw() []float64 {
	xs := make([]float64, len(s))
	for i, x := range s {
		xs[i] = x.secs
	}
	return xs
}
