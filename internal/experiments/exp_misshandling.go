package experiments

import (
	"context"

	"twopage/internal/addr"
	"twopage/internal/engine"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// missHandlingRow is one workload's per-organization handler costs.
type missHandlingRow struct {
	walk, sf, lf, stlbCost float64 // avg cycles per miss
	stlbHitPct             float64
	largeMissPct           float64
}

// MissHandling compares the software miss-handling organizations that
// Section 2.3 sketches for two page sizes, by replaying every hardware
// TLB miss of a two-page run against each organization and averaging
// the handler cost:
//
//   - the chunk-indexed two-level table (the 25-cycle baseline);
//   - a hashed page table probed small-page-size first;
//   - the same hashed table probed large-page-size first;
//   - a software translation cache (STLB) in front of the two-level walk.
//
// The paper leaves "precise miss-handling techniques and software data
// structures ... beyond the scope of this paper"; this experiment fills
// in the comparison its text anticipates.
func MissHandling(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	futs := make([]*engine.Future[missHandlingRow], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		futs[i] = engine.Go(o.Engine, ctx, "misshandling "+s.Name,
			func(ctx context.Context) (missHandlingRow, error) {
				pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
				hw := tlb.NewFullyAssoc(16)
				pt := pagetable.NewNTable(addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift))
				hashSF, err := pagetable.NewHashed(4096, pagetable.SmallFirst)
				if err != nil {
					return missHandlingRow{}, err
				}
				hashLF, err := pagetable.NewHashed(4096, pagetable.LargeFirst)
				if err != nil {
					return missHandlingRow{}, err
				}
				stlb, err := pagetable.NewSTLB(512)
				if err != nil {
					return missHandlingRow{}, err
				}

				var nextFrame addr.PN
				var misses, largeMisses uint64
				var cWalk, cSF, cLF, cSTLB float64

				// ensurePT maps p in the two-level table, resolving stale
				// size conflicts left by promote/demote races.
				ensurePT := func(p policy.Page) {
					nextFrame++
					if uint(p.Shift) >= addr.ChunkShift {
						if err := pt.Map(1, p.Number, nextFrame); err != nil {
							// Small mappings linger: collapse them.
							if _, _, perr := pt.Promote(1, p.Number, nextFrame); perr != nil {
								return
							}
						}
						return
					}
					if err := pt.Map(0, p.Number, nextFrame); err != nil {
						// Chunk still mapped large from a stale state: drop it.
						pt.Unmap(addr.VA(uint64(addr.ChunkOfBlock(p.Number)) << addr.ChunkShift))
						_ = pt.Map(0, p.Number, nextFrame)
					}
				}

				if _, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
					//paperlint:ignore oneloop every TLB miss is replayed against hashed tables and an STLB, and each promotion and demotion updates them; those structures belong to this experiment alone
					for _, ref := range batch {
						res := pol.Assign(ref.Addr)
						switch res.Event {
						case policy.EventPromote:
							first := addr.FirstBlock(res.Chunk)
							for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
								p := policy.Page{Number: first + i, Shift: addr.BlockShift}
								hw.Invalidate(p)
								hashSF.Remove(p)
								hashLF.Remove(p)
							}
							stlb.InvalidateChunk(res.Chunk)
							nextFrame++
							if _, _, err := pt.Promote(1, res.Chunk, nextFrame); err != nil {
								// No resident small mappings: the large page
								// will fault in on demand.
								_ = err
							}
						case policy.EventDemote:
							lp := policy.Page{Number: res.Chunk, Shift: addr.ChunkShift}
							hw.Invalidate(lp)
							hashSF.Remove(lp)
							hashLF.Remove(lp)
							stlb.InvalidateChunk(res.Chunk)
							pt.Unmap(lp.Base()) // small pages fault back in lazily
						}
						if hw.Access(ref.Addr, res.Page) {
							continue
						}
						misses++
						large := uint(res.Page.Shift) >= addr.ChunkShift
						if large {
							largeMisses++
						}

						// Two-level chunk-indexed walk.
						_, w := pt.Lookup(ref.Addr)
						if !w.Found {
							ensurePT(res.Page)
						}
						cWalk += w.Cycles

						// Hashed tables, both probe orders.
						_, hwalk := hashSF.Lookup(ref.Addr)
						if !hwalk.Found {
							hashSF.Insert(res.Page, nextFrame)
						}
						cSF += hwalk.Cycles
						_, hwalk = hashLF.Lookup(ref.Addr)
						if !hwalk.Found {
							hashLF.Insert(res.Page, nextFrame)
						}
						cLF += hwalk.Cycles

						// STLB in front of the two-level walk: trap overhead +
						// probe; on a miss the full handler runs behind it.
						pte, hit, probe := stlb.Lookup(ref.Addr)
						cost := pagetable.TrapCycles + probe + 5 /* insert+return */
						if !hit {
							cost += pagetable.TwoSizeHandlerCycles()
							pte = pagetable.PTE{Frame: nextFrame, Valid: true, Large: large}
							stlb.Fill(res.Page, pte)
						}
						cSTLB += cost
					}
				}); err != nil {
					return missHandlingRow{}, err
				}
				if misses == 0 {
					misses = 1
				}
				m := float64(misses)
				return missHandlingRow{
					walk:         cWalk / m,
					sf:           cSF / m,
					lf:           cLF / m,
					stlbCost:     cSTLB / m,
					stlbHitPct:   100 * stlb.HitRatio(),
					largeMissPct: 100 * float64(largeMisses) / m,
				}, nil
			})
	}
	tbl := tableio.New("Extension: miss-handler cost per organization (avg cycles per TLB miss)",
		"Program", "2-level", "hash small-1st", "hash large-1st", "STLB+2-level", "STLB hit%", "large-miss%")
	for i, s := range specs {
		row, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		tbl.Row(s.Name,
			tableio.F(row.walk, 1),
			tableio.F(row.sf, 1),
			tableio.F(row.lf, 1),
			tableio.F(row.stlbCost, 1),
			tableio.F(row.stlbHitPct, 0),
			tableio.F(row.largeMissPct, 0))
	}
	tbl.Note("Paper baseline: 25 cycles for a two-size handler. Hashed probe order should follow the miss mix (large-miss%%).")
	return tbl, nil
}
