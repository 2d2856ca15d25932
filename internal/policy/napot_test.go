package policy

import (
	"fmt"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

var (
	classes2 = addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift)
	classes3 = addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
)

// promoteOnce is the two-size Napot that promotes a chunk at thr
// touched blocks.
func promoteOnce(thr int) *Napot {
	return NewNapot(NapotConfig{Classes: classes2, Thresholds: []int{thr}})
}

func TestNapotPromotesOnceForever(t *testing.T) {
	p := promoteOnce(4)
	// Touch 4 distinct blocks of chunk 0, spread over "time" with heavy
	// interleaved traffic elsewhere — no window, so it still promotes.
	for i := 0; i < 3; i++ {
		res := p.Assign(addr.VA(i * addr.BlockSize))
		if res.Event != EventNone {
			t.Fatalf("premature event: %+v", res)
		}
	}
	for i := 0; i < 100; i++ {
		p.Assign(addr.VA(50<<addr.ChunkShift) + addr.VA(i%3*addr.BlockSize))
	}
	res := p.Assign(addr.VA(3 * addr.BlockSize))
	if res.Event != EventPromote || res.Chunk != 0 || res.Level != 1 {
		t.Fatalf("expected promotion: %+v", res)
	}
	if p.TopMappedClass(0) != 1 {
		t.Fatal("chunk 0 should be large")
	}
	// Never demotes, no matter what happens afterwards.
	for i := 0; i < 1000; i++ {
		p.Assign(addr.VA(60 << addr.ChunkShift))
	}
	if got := p.Assign(0); got.Page.Shift != addr.ChunkShift || got.Event != EventNone {
		t.Fatalf("promote-once policy must never demote: %+v", got)
	}
	st := p.Stats()
	if st.Promotions[1] != 1 || st.Demotions[1] != 0 || st.Mapped[1] != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.RefsByClass[0]+st.RefsByClass[1] != st.Refs {
		t.Fatalf("accounting: %+v", st)
	}
}

func TestNapotRepeatedBlockDoesNotCount(t *testing.T) {
	p := promoteOnce(2)
	for i := 0; i < 10; i++ {
		if res := p.Assign(0x100); res.Event != EventNone {
			t.Fatal("same block repeatedly must not promote")
		}
	}
	if res := p.Assign(0x100 + addr.BlockSize); res.Event != EventPromote {
		t.Fatal("second distinct block should promote at threshold 2")
	}
}

func TestNapotValidation(t *testing.T) {
	for _, cfg := range []NapotConfig{
		{Classes: classes2, Thresholds: []int{0}},
		{Classes: classes2, Thresholds: []int{9}},
		{Classes: classes2, Thresholds: []int{}},
		{Classes: classes2, Thresholds: []int{4, 4}},
		{Classes: classes3, Thresholds: []int{4}},
		{Classes: classes3, Thresholds: []int{4, 65}},
		{Classes: addr.MustShiftClasses(addr.BlockShift)},
		{Classes: addr.MustShiftClasses(addr.Shift8K, addr.ChunkShift)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %v %v should panic", cfg.Classes, cfg.Thresholds)
				}
			}()
			NewNapot(cfg)
		}()
	}
	if got := promoteOnce(4).Name(); got != "4KB/32KB napot" {
		t.Fatalf("name %q", got)
	}
	NewNapot(NapotConfig{Classes: classes3, Thresholds: []int{8, 64}})
}

// naiveNapot is the promote-once rule written out plainly: per region
// of each class k >= 1, the set of base blocks ever touched; a region
// is promoted the first time its set reaches the class threshold, and
// each reference resolves to the top promoted class.
type naiveNapot struct {
	classes  addr.SizeClasses
	thr      []int                          // per class k >= 1, at index k-1
	touched  []map[addr.PN]map[addr.PN]bool // per class k >= 1: region -> touched blocks
	promoted []map[addr.PN]bool             // per class k >= 1: promoted regions
	stats    LadderStats
}

func newNaiveNapot(classes addr.SizeClasses, thr []int) *naiveNapot {
	m := &naiveNapot{classes: classes}
	for k := 1; k < classes.N(); k++ {
		t := classes.BaseFanout(k)
		if thr != nil {
			t = thr[k-1]
		}
		m.thr = append(m.thr, t)
		m.touched = append(m.touched, map[addr.PN]map[addr.PN]bool{})
		m.promoted = append(m.promoted, map[addr.PN]bool{})
	}
	return m
}

func (m *naiveNapot) assign(va addr.VA) Result {
	m.stats.Refs++
	var res Result
	b := addr.Block(va)
	for k := 1; k < m.classes.N(); k++ {
		r := m.classes.Page(va, k)
		set := m.touched[k-1][r]
		if set == nil {
			set = map[addr.PN]bool{}
			m.touched[k-1][r] = set
		}
		set[b] = true
		if !m.promoted[k-1][r] && len(set) >= m.thr[k-1] {
			m.promoted[k-1][r] = true
			m.stats.Promotions[k]++
			m.stats.Mapped[k]++
			res.Event, res.Chunk, res.Level = EventPromote, r, uint8(k)
		}
	}
	res.Page = Page{Number: b, Shift: addr.BlockShift}
	top := 0
	for k := m.classes.N() - 1; k >= 1; k-- {
		if r := m.classes.Page(va, k); m.promoted[k-1][r] {
			res.Page, top = Page{Number: r, Shift: m.classes.Shift(k)}, k
			break
		}
	}
	m.stats.RefsByClass[top]++
	return res
}

// TestNapotMatchesNaiveModel drives Napot and the naive model over
// li, worm and matrix300 and checks every Result and the final stats:
// two classes at each threshold 1-8, and three classes at full
// contiguity and at {4, 32}. li and worm never fill a whole chunk, so
// matrix300 is what promotes under the full-contiguity rule.
func TestNapotMatchesNaiveModel(t *testing.T) {
	const refs = 200_000
	type config struct {
		classes addr.SizeClasses
		thr     []int
	}
	var configs []config
	for thr := 1; thr <= addr.BlocksPerChunk; thr++ {
		configs = append(configs, config{classes2, []int{thr}})
	}
	configs = append(configs, config{classes3, nil}, config{classes3, []int{4, 32}})
	names := []string{"li", "worm", "matrix300"}
	streams := make([][]addr.VA, len(names))
	for i, name := range names {
		if _, err := trace.Drain(workload.MustNew(name, refs), func(batch []trace.Ref) {
			for _, r := range batch {
				streams[i] = append(streams[i], r.Addr)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range configs {
		var promoted [addr.MaxSizeClasses]uint64 // per class, summed over the programs
		for i, name := range names {
			t.Run(fmt.Sprintf("%s-%dclass-thr%v", name, cfg.classes.N(), cfg.thr), func(t *testing.T) {
				p := NewNapot(NapotConfig{Classes: cfg.classes, Thresholds: cfg.thr})
				m := newNaiveNapot(cfg.classes, cfg.thr)
				for j, va := range streams[i] {
					if got, want := p.Assign(va), m.assign(va); got != want {
						t.Fatalf("ref %d (va %#x): %+v, want %+v", j, uint64(va), got, want)
					}
				}
				if got := p.Stats(); got != m.stats {
					t.Fatalf("stats %+v, want %+v", got, m.stats)
				}
				for k := range promoted {
					promoted[k] += m.stats.Promotions[k]
				}
			})
		}
		// The programs must exercise every class's promotion.
		for k := 1; k < cfg.classes.N(); k++ {
			if promoted[k] == 0 {
				t.Errorf("%v thresholds %v: no class-%d promotion", cfg.classes, cfg.thr, k)
			}
		}
	}
}
