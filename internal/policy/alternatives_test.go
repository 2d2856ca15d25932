package policy

import (
	"strings"
	"testing"

	"twopage/internal/addr"
)

func TestRegionAssign(t *testing.T) {
	p, err := NewRegion(RegionConfig{LargeRegions: []Range{
		{Start: 0x10000, End: 0x30000},   // chunks 2..5
		{Start: 0x100000, End: 0x108000}, // chunk 32
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Inside the first region.
	res := p.Assign(0x18000)
	if res.Page.Shift != addr.ChunkShift || res.Page.Number != 3 {
		t.Fatalf("in-region assign: %+v", res.Page)
	}
	if res.Event != EventNone {
		t.Fatal("static policy must not emit events")
	}
	// 0x2FFFF is in chunk 5, the last chunk of [0x10000, 0x30000).
	if got := p.Assign(0x2FFFF); got.Page.Shift != addr.ChunkShift {
		t.Fatalf("end of region: %+v", got.Page)
	}
	if got := p.Assign(0x30000); got.Page.Shift != addr.BlockShift {
		t.Fatalf("past end should be small: %+v", got.Page)
	}
	// Outside any region.
	if got := p.Assign(0x50000); got.Page.Shift != addr.BlockShift {
		t.Fatalf("outside assign: %+v", got.Page)
	}
	// One-chunk region covers its whole chunk.
	if got := p.Assign(0x107FFF); got.Page.Shift != addr.ChunkShift {
		t.Fatalf("one-chunk region: %+v", got.Page)
	}
	st := p.Stats()
	if st.Refs != 5 || st.LargeRefs != 3 || st.SmallRefs != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if p.Name() != "4KB/32KB static" {
		t.Fatalf("name: %q", p.Name())
	}
}

func TestRegionCoalescesAdjacent(t *testing.T) {
	p, err := NewRegion(RegionConfig{LargeRegions: []Range{
		{Start: 0x40000, End: 0x50000},
		{Start: 0x50000, End: 0x60000}, // adjacent to the previous
		{Start: 0x00000, End: 0x08000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []addr.VA{0x0, 0x40000, 0x4C000, 0x5FFFF} {
		if got := p.Assign(va); got.Page.Shift != addr.ChunkShift {
			t.Fatalf("va %#x should be large", uint64(va))
		}
	}
	if got := p.Assign(0x60000); got.Page.Shift != addr.BlockShift {
		t.Fatal("past coalesced end should be small")
	}
}

func TestRegionValidation(t *testing.T) {
	cases := []struct {
		name    string
		regions []Range
		wantErr string // substring of the error; "" means valid
	}{
		{"no regions", nil, ""},
		{"one chunk", []Range{{Start: 0x8000, End: 0x10000}}, ""},
		{"adjacent", []Range{{Start: 0x0, End: 0x8000}, {Start: 0x8000, End: 0x10000}}, ""},
		{"empty range", []Range{{Start: 5, End: 5}}, "region 0 [0x5, 0x5) is empty"},
		{"inverted range", []Range{{Start: 0x10000, End: 0x8000}}, "is empty"},
		{"unaligned start", []Range{{Start: 0x1000, End: 0x8000}},
			"region 0 [0x1000, 0x8000) is not 32KB-aligned"},
		{"unaligned end", []Range{{Start: 0x8000, End: 0x9000}},
			"region 0 [0x8000, 0x9000) is not 32KB-aligned"},
		{"overlap", []Range{{Start: 0x40000, End: 0x50000}, {Start: 0x48000, End: 0x60000}},
			"region 1 [0x48000, 0x60000) overlaps region 0 [0x40000, 0x50000)"},
		{"duplicate", []Range{{Start: 0x8000, End: 0x10000}, {Start: 0x8000, End: 0x10000}},
			"overlaps"},
		{"contained", []Range{{Start: 0x0, End: 0x20000}, {Start: 0x8000, End: 0x10000}},
			"overlaps"},
		{"overlap given out of order", []Range{{Start: 0x48000, End: 0x60000}, {Start: 0x40000, End: 0x50000}},
			"region 0 [0x48000, 0x60000) overlaps region 1 [0x40000, 0x50000)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewRegion(RegionConfig{LargeRegions: tc.regions})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			if p != nil {
				t.Fatal("policy should be nil on error")
			}
		})
	}
	// No regions at all: everything small.
	p, err := NewRegion(RegionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Assign(0x1234); got.Page.Shift != addr.BlockShift {
		t.Fatal("regionless policy should be all-small")
	}
}
