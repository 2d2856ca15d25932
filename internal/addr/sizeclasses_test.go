package addr

import (
	"fmt"
	"strings"
	"testing"
)

func TestSizeClassesValidation(t *testing.T) {
	cases := []struct {
		name    string
		sizes   []PageSize
		wantErr string
	}{
		{"empty", nil, "at least one"},
		{"one", []PageSize{Size4K}, ""},
		{"pair", []PageSize{Size4K, Size32K}, ""},
		{"trident", []PageSize{Size4K, Size2M, Size1G}, ""},
		{"four", []PageSize{Size4K, Size32K, Size256K, Size2M}, ""},
		{"too-many", []PageSize{Size4K, Size8K, Size16K, Size32K, Size64K}, "exceed the maximum"},
		{"not-pow2", []PageSize{Size4K, 3 << 14}, "not a power of two"},
		{"descending", []PageSize{Size32K, Size4K}, "strictly ascending"},
		{"duplicate", []PageSize{Size4K, Size4K}, "strictly ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewSizeClasses(tc.sizes...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewSizeClasses(%v) = %v", tc.sizes, err)
				}
				if c.N() != len(tc.sizes) {
					t.Fatalf("N() = %d, want %d", c.N(), len(tc.sizes))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewSizeClasses(%v) err = %v, want containing %q", tc.sizes, err, tc.wantErr)
			}
		})
	}
}

func TestSizeClassesAccessors(t *testing.T) {
	c := MustSizeClasses(Size4K, Size32K, Size256K)
	if got := c.String(); got != "4KB/32KB/256KB" {
		t.Errorf("String() = %q", got)
	}
	if c.Shift(0) != Shift4K || c.Shift(1) != Shift32K || c.Shift(2) != Shift256K {
		t.Errorf("shifts = %v", c.Shifts())
	}
	if c.TopShift() != Shift256K {
		t.Errorf("TopShift() = %d", c.TopShift())
	}
	if c.Fanout(1) != 8 || c.Fanout(2) != 8 {
		t.Errorf("Fanout = %d, %d, want 8, 8", c.Fanout(1), c.Fanout(2))
	}
	if c.BaseFanout(2) != 64 {
		t.Errorf("BaseFanout(2) = %d, want 64", c.BaseFanout(2))
	}
	// Comparable: equal hierarchies are ==.
	if c != MustShiftClasses(Shift4K, Shift32K, Shift256K) {
		t.Error("equivalent SizeClasses values are not ==")
	}
	if c == MustShiftClasses(Shift4K, Shift32K) {
		t.Error("different SizeClasses values are ==")
	}
}

// TestShiftPanics pins the message Shift panics with for a class index
// outside the hierarchy, including the unused slots below
// MaxSizeClasses.
func TestShiftPanics(t *testing.T) {
	c := MustShiftClasses(BlockShift, ChunkShift)
	for _, k := range []int{-1, 2, MaxSizeClasses} {
		func() {
			defer func() {
				want := fmt.Sprintf("addr: size class %d out of range [0,2)", k)
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("Shift(%d) panicked with %q, want %q", k, got, want)
				}
			}()
			c.Shift(k)
		}()
	}
}

func TestSizeClassesClassOf(t *testing.T) {
	c := MustSizeClasses(Size4K, Size32K, Size256K)
	cases := []struct {
		shift uint
		want  int
	}{
		{10, 0}, // below base clamps to 0 (legacy small rule)
		{Shift4K, 0},
		{Shift16K, 0},
		{Shift32K, 1},
		{Shift64K, 1},
		{Shift256K, 2},
		{Shift2M, 2}, // above top counts against the top class
	}
	for _, tc := range cases {
		if got := c.ClassOf(tc.shift); got != tc.want {
			t.Errorf("ClassOf(%d) = %d, want %d", tc.shift, got, tc.want)
		}
	}
}

func TestSizeClassesAddressing(t *testing.T) {
	c := MustSizeClasses(Size4K, Size32K, Size256K)
	va := VA(0x123456)
	if got, want := c.Page(va, 0), Block(va); got != want {
		t.Errorf("Page(va, 0) = %#x, want %#x", got, want)
	}
	if got, want := c.Page(va, 1), Chunk(va); got != want {
		t.Errorf("Page(va, 1) = %#x, want %#x", got, want)
	}
	if got, want := c.Base(va, 2), Base(va, Shift256K); got != want {
		t.Errorf("Base(va, 2) = %#x, want %#x", got, want)
	}
	// Page-number conversions between classes.
	b := c.Page(va, 0)
	if got, want := c.Up(b, 0, 2), c.Page(va, 2); got != want {
		t.Errorf("Up(block, 0, 2) = %#x, want %#x", got, want)
	}
	r2 := c.Page(va, 2)
	if got := c.FirstSub(r2, 2, 1); got != r2<<3 {
		t.Errorf("FirstSub(region, 2, 1) = %#x, want %#x", got, r2<<3)
	}
	if got, want := c.SubIndex(c.Page(va, 1), 2, 1), uint(c.Page(va, 1)&7); got != want {
		t.Errorf("SubIndex = %d, want %d", got, want)
	}
	if got, want := c.SpanPages(0x1000, 1<<16, 1), SpanPages(0x1000, 1<<16, Shift32K); got != want {
		t.Errorf("SpanPages = %d, want %d", got, want)
	}
}
