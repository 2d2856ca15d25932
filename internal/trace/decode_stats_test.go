package trace

import "testing"

// A fully drained MapReader must account for every ref, block, and a
// plausible number of payload bytes in its DecodeStats.
func TestMapReaderDecodeStats(t *testing.T) {
	refs := genRefs(5000, 3)
	f, err := NewFileBytes(encodeV2(t, refs, 100))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Reader()
	got := readAll(t, r, 513)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	ds := r.DecodeStats()
	if ds.Refs != f.Refs() {
		t.Errorf("DecodeStats.Refs = %d, want %d", ds.Refs, f.Refs())
	}
	if ds.Blocks != uint64(f.Blocks()) {
		t.Errorf("DecodeStats.Blocks = %d, want %d", ds.Blocks, f.Blocks())
	}
	if ds.Bytes == 0 {
		t.Error("DecodeStats.Bytes = 0 after full drain")
	}

	// Stats are cumulative across Reset: a second pass doubles them.
	r.Reset()
	readAll(t, r, 513)
	ds2 := r.DecodeStats()
	if ds2.Refs != 2*ds.Refs || ds2.Blocks != 2*ds.Blocks || ds2.Bytes != 2*ds.Bytes {
		t.Errorf("stats after Reset+redrain = %+v, want doubled %+v", ds2, ds)
	}
}

// Limit wraps the readers handed to simulations (RegisterFile wraps
// every trace workload in one); it must forward DecodeStats from a
// counting inner reader and report zero otherwise.
func TestDecodeStatsForwarding(t *testing.T) {
	refs := genRefs(3000, 4)
	f, err := NewFileBytes(encodeV2(t, refs, 100))
	if err != nil {
		t.Fatal(err)
	}

	lim := NewLimit(f.Reader(), 1000)
	readAll(t, lim, 257)
	if ds := lim.DecodeStats(); ds.Refs == 0 || ds.Blocks == 0 {
		t.Errorf("Limit did not forward DecodeStats: %+v", ds)
	}

	// Non-counting inner readers yield the zero value, not a panic.
	plain := NewLimit(NewSliceReader(refs), 100)
	readAll(t, plain, 64)
	if ds := plain.DecodeStats(); ds != (DecodeStats{}) {
		t.Errorf("Limit over SliceReader reported %+v, want zero", ds)
	}
}
