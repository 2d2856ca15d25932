package wss

import (
	"slices"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// genVAs produces a deterministic pseudo-random address stream mixing
// dense reuse with scattered pages, the shape that exercises both the
// capped-gap and tail terms of the residency accumulation.
func genVAs(n int, seed uint64) []addr.VA {
	s := seed ^ 0x9E3779B97F4A7C15
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	vas := make([]addr.VA, n)
	for i := range vas {
		switch next() % 4 {
		case 0: // hot dense region
			vas[i] = addr.VA(0x10000 + next()%(1<<14))
		case 1: // medium working set
			vas[i] = addr.VA(0x400000 + next()%(1<<18))
		case 2: // sequential-ish sweep
			vas[i] = addr.VA(0x800000 + uint64(i)*64)
		default: // cold scattered pages
			vas[i] = addr.VA(0x2000_0000 + (next()%(1<<12))<<addr.Shift64K)
		}
	}
	return vas
}

// The tentpole exactness property: merging shard-local static WSS state
// reproduces the serial result bit for bit — AvgBytes compared with ==,
// not a tolerance — and the serial pass's distinct pages, for any shard
// count and any (even maximally uneven) split points.
func TestMergeStaticMatchesSerialExactly(t *testing.T) {
	shifts := []uint{addr.Shift4K, addr.Shift8K, addr.Shift16K, addr.Shift32K, addr.Shift64K}
	for _, n := range []int{0, 1, 5_000, 50_000} {
		vas := genVAs(n, uint64(n)+3)
		blocks := map[addr.PN]bool{}
		for _, va := range vas {
			blocks[addr.PN(va>>12)] = true
		}
		wantBlocks := make([]addr.PN, 0, len(blocks))
		for b := range blocks {
			wantBlocks = append(wantBlocks, b)
		}
		slices.Sort(wantBlocks)
		for _, T := range []uint64{1, 100, 5_000, 1 << 40} {
			serial := NewStatic(T, 0, shifts...)
			for _, va := range vas {
				serial.Step(va)
			}
			want := serial.Finish()
			if got := serial.Pages(0); !slices.Equal(got, wantBlocks) {
				t.Fatalf("n=%d T=%d: Pages(0) has %d pages, want the stream's %d distinct 4KB blocks", n, T, len(got), len(wantBlocks))
			}

			// Finish on a section treats it as the whole stream: the same
			// references started at a later global time give the same
			// results.
			offset := NewStatic(T, 1<<30, shifts...)
			for _, va := range vas {
				offset.Step(va)
			}
			for i, got := range offset.Finish() {
				if got != want[i] {
					t.Fatalf("n=%d T=%d shift=%d: section Finish %+v, want %+v", n, T, shifts[i], got, want[i])
				}
			}

			for _, shards := range []int{1, 2, 3, 8} {
				parts := make([]*Static, shards)
				// Deliberately uneven split: shard i gets a slice that
				// grows quadratically, with the last shard absorbing the
				// remainder (and possibly nothing).
				cuts := make([]int, shards+1)
				for i := 1; i < shards; i++ {
					cuts[i] = n * i * i / (shards * shards)
				}
				cuts[shards] = n
				for i := 0; i < shards; i++ {
					parts[i] = NewStatic(T, uint64(cuts[i]), shifts...)
					for _, va := range vas[cuts[i]:cuts[i+1]] {
						parts[i].Step(va)
					}
				}
				merged := MergeStatic(parts)
				for i := range shifts {
					if !slices.Equal(merged.Pages(i), serial.Pages(i)) {
						t.Fatalf("n=%d T=%d shards=%d shift=%d: merged pages differ from the serial pass's", n, T, shards, shifts[i])
					}
				}
				got := merged.Finish()
				if len(got) != len(want) {
					t.Fatalf("n=%d T=%d shards=%d: %d results, want %d", n, T, shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d T=%d shards=%d shift=%d:\n got %+v\nwant %+v",
							n, T, shards, shifts[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// FuzzMergeStatic extends the exactness property past fixed cut shapes:
// any short stream over a small address space, any window and any
// section cuts, empty sections included, merge to the serial pass's
// results and distinct pages.
func FuzzMergeStatic(f *testing.F) {
	f.Add(uint8(6), []byte{3, 9}, []byte{0, 1, 2, 3, 64, 65, 0, 1, 255, 3})
	f.Add(uint8(0), []byte{}, []byte{})
	f.Add(uint8(255), []byte{0, 0, 5, 5, 200}, []byte{1, 1, 1, 17, 17, 33, 1, 200, 201, 1})
	f.Fuzz(func(t *testing.T, window uint8, cuts, stream []byte) {
		// Each section's tables cost tens of KB; a few sections and a
		// few thousand references cover every splice.
		if len(cuts) > 16 || len(stream) > 4096 {
			t.Skip()
		}
		shifts := []uint{addr.Shift4K, addr.Shift8K, addr.Shift32K}
		T := uint64(window) + 1
		// 256 addresses 1KB apart: 64 4KB pages, 32 8KB and 8 32KB.
		vas := make([]addr.VA, len(stream))
		for i, b := range stream {
			vas[i] = addr.VA(b) << 10
		}
		bounds := []int{0, len(vas)}
		for _, c := range cuts {
			bounds = append(bounds, int(c)%(len(vas)+1))
		}
		slices.Sort(bounds)

		serial := NewStatic(T, 0, shifts...)
		for _, va := range vas {
			serial.Step(va)
		}
		parts := make([]*Static, len(bounds)-1)
		for i := range parts {
			parts[i] = NewStatic(T, uint64(bounds[i]), shifts...)
			for _, va := range vas[bounds[i]:bounds[i+1]] {
				parts[i].Step(va)
			}
		}
		merged := MergeStatic(parts)
		for i, shift := range shifts {
			if got, want := merged.Pages(i), serial.Pages(i); !slices.Equal(got, want) {
				t.Fatalf("T=%d cuts=%v shift=%d: merged pages %v, want %v", T, bounds, shift, got, want)
			}
		}
		if got, want := merged.Finish(), serial.Finish(); !slices.Equal(got, want) {
			t.Fatalf("T=%d cuts=%v:\n got %+v\nwant %+v", T, bounds, got, want)
		}
	})
}

// Restart must keep the incremental large/small split and drop only
// the average: a warm-up observed like any other stream and then
// restarted yields the same instantaneous sizes as a run without the
// restart, and an average summed from zero over the steps after it.
func TestRestartKeepsStateAndDropsAverage(t *testing.T) {
	vas := genVAs(20_000, 99)
	const warm = 7_000

	run := func(warmRefs int) (*TwoSize, []uint64) {
		pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(2_000))
		calc := NewTwoSize(pol)
		var sizes []uint64
		for i, va := range vas {
			if i == warmRefs {
				calc.Restart()
			}
			calc.Observe(pol.Assign(va))
			sizes = append(sizes, calc.Current())
		}
		return calc, sizes
	}
	full, fullSizes := run(-1)
	warmed, warmSizes := run(warm)
	acc := 0.0
	for i := range fullSizes {
		if fullSizes[i] != warmSizes[i] {
			t.Fatalf("step %d: instantaneous size %d with a restart, %d without",
				i, warmSizes[i], fullSizes[i])
		}
		if i >= warm {
			acc += float64(warmSizes[i])
		}
	}
	if warmed.Steps() != full.Steps()-warm {
		t.Fatalf("warmed steps = %d, want %d", warmed.Steps(), full.Steps()-warm)
	}
	if full.Steps() != uint64(len(vas)) {
		t.Fatalf("full steps = %d, want %d", full.Steps(), len(vas))
	}
	want := Result{Scheme: "4KB/32KB", AvgBytes: acc / float64(len(vas)-warm), Samples: uint64(len(vas) - warm)}
	if got := warmed.Result(); got != want {
		t.Fatalf("result after the restart = %+v, want %+v", got, want)
	}
}
