package main

// pin identifies a pass workload's input: workload, seed and length.
type pin struct {
	workload string
	seed     uint64
	refs     uint64
}

// pins are the counter digests (see digest) of the pass workloads on
// the default seed, at the benchmark's input length and at the length
// the tests use. A simulator change that moves any simulated counter
// must update them. On this seed the sharded pass's merged counters
// equal the serial pass's exactly, so pass-two-sharded pins pass-two's
// digest.
var pins = map[pin]string{
	{"pass-two", defaultSeed, defaultRefs}:         "530d91442aec7093",
	{"pass-two", defaultSeed, testRefs}:            "e51b7b65c557f326",
	{"pass-walk-random", defaultSeed, defaultRefs}: "19d25a59359a8025",
	{"pass-walk-random", defaultSeed, testRefs}:    "2460098607596ebc",
	{"pass-two-sharded", defaultSeed, defaultRefs}: "530d91442aec7093",
	{"pass-two-sharded", defaultSeed, testRefs}:    "e51b7b65c557f326",
}

// pinned returns the pinned digest for an input, or "" when there is
// none and repetitions are held to the first one instead.
func pinned(workload string, seed, refs uint64) string {
	return pins[pin{workload, seed, refs}]
}
