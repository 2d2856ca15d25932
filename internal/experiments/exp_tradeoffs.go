package experiments

import (
	"context"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/disk"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// DiskIO prices demand paging with the positional disk model,
// quantifying the paper's Section 1 claim that with larger pages "disk
// paging is more efficient (since the delay of disk head movement is
// amortized over more data transferred)". Under memory pressure the
// two-page scheme takes fewer faults (one fault maps eight blocks) and
// pays positioning once per 32KB instead of once per 4KB.
func DiskIO(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	dm := disk.Default()
	type cell struct {
		name string
		fut  *engine.Future[*core.Result]
	}
	var cells []cell
	for _, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		for _, two := range []bool{false, true} {
			name := "4KB"
			if two {
				name = "4KB/32KB"
			}
			cells = append(cells, cell{name, o.Engine.Ride(ctx, "diskio "+s.Name+" "+name, s.Name, refs,
				func() (*core.Simulator, error) {
					return memorySim(two, T, tlb.NewFullyAssoc(16), core.Memory{Size: 1 << 20, Disk: &dm}), nil
				})})
		}
	}
	tbl := tableio.New("Extension: demand paging with a 1992 disk model (1MB memory, per 1000 accesses)",
		"Program", "Policy", "faults", "MB paged", "IO ms", "cyc/access")
	i := 0
	for _, s := range specs {
		for range []bool{false, true} {
			res, err := cells[i].fut.Wait(ctx)
			if err != nil {
				return nil, err
			}
			per := float64(res.Refs) / 1000
			ioMs := res.Memory.IO.IOCycles / (dm.CPUMHz * 1e3)
			tbl.Row(s.Name, cells[i].name,
				tableio.F(float64(res.PageTable.Misses)/per, 2),
				tableio.F(float64(res.Memory.IO.BytesIn)/(1<<20), 1),
				tableio.F(ioMs, 0),
				tableio.F(res.CyclesPerRef(), 1))
			i++
		}
	}
	tbl.Note("Disk: 16ms seek + 5.6ms rotation + 2MB/s at 40MHz — one 32KB page-in costs ~5x less than eight 4KB page-ins.")
	return tbl, nil
}

// protectedBlocks derives the protection profile from a stream's
// footprint, its distinct 4KB blocks in ascending order: every 16th
// distinct block carries sub-page write protection.
func protectedBlocks(footprint []addr.PN) map[addr.PN]bool {
	protected := map[addr.PN]bool{}
	for i := 0; i < len(footprint); i += 16 {
		protected[footprint[i]] = true
	}
	return protected
}

// protStats counts faults for one scheme under a profile.
type protStats struct {
	stores, trueF, spurious uint64
}

// Protect quantifies the paper's third tradeoff: "the protection
// granularity becomes coarser" with larger pages (Section 1, citing
// Appel & Li's user-level virtual memory primitives). A set of 4KB
// regions is write-protected (e.g. GC write barriers); every store to a
// page that contains a protected region faults. Small pages fault only
// on stores to the protected blocks themselves; large pages also fault
// spuriously on stores to their other blocks. The veto row shows the OS
// fix: keep chunks with sub-page protection on small pages. That row
// follows from its definition, so it is not simulated: a store's true
// fault depends only on its block, never on the page size, and a
// vetoed chunk (one that holds a protected block) is never mapped
// large, so no store faults spuriously. The row is the 4KB scheme's
// stores and true faults.
//
// The profile is the static unit's footprint, which must land before
// the scheme pass can start, so the experiment stages its submissions:
// all static units first, then each workload's scheme pass as its
// footprint lands (tasks themselves never wait on other tasks). The
// scheme pass drives the three simulated schemes' policies through one
// read of the stream, handing each batch to every policy in turn.
func Protect(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	schemeNames := []string{"4KB", "32KB", "4KB/32KB", "4KB/32KB veto"}
	statics := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		statics[i] = staticWSS(ctx, o, s, refs, uint64(windowFor(refs)))
	}
	schemes := make([]*engine.Future[[]protStats], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		static, err := statics[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		protected := protectedBlocks(static.Footprint)
		schemes[i] = engine.Go(o.Engine, ctx, "protect "+s.Name,
			func(ctx context.Context) ([]protStats, error) {
				pols := []policy.Assigner{ // in schemeNames order
					policy.NewSingle(addr.Size4K),
					policy.NewSingle(addr.Size32K),
					policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)),
				}
				stats := make([]protStats, len(pols))
				_, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
					for j, pol := range pols {
						st := &stats[j]
						//paperlint:ignore oneloop the store check needs each reference's kind and mapped page, and no TLB; it belongs to this experiment alone
						for _, ref := range batch {
							res := pol.Assign(ref.Addr)
							if ref.Kind != trace.Store {
								continue
							}
							st.stores++
							if protected[addr.Block(ref.Addr)] {
								st.trueF++
								continue
							}
							// Spurious: the mapped page spans a protected block
							// the store did not touch.
							if uint(res.Page.Shift) > addr.BlockShift {
								first := addr.FirstBlock(res.Page.Number)
								for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
									if protected[first+i] {
										st.spurious++
										break
									}
								}
							}
						}
					}
				})
				// The veto row: the 4KB scheme's stores and true faults.
				return append(stats, protStats{stores: stats[0].stores, trueF: stats[0].trueF}), err
			})
	}
	tbl := tableio.New("Extension: sub-page write protection (faults per 1000 stores)",
		"Program", "Scheme", "true", "spurious", "spurious ratio")
	for i, s := range specs {
		stats, err := schemes[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		for j, name := range schemeNames {
			st := stats[j]
			per := float64(st.stores) / 1000
			ratio := 0.0
			if st.trueF > 0 {
				ratio = float64(st.spurious) / float64(st.trueF)
			}
			tbl.Row(s.Name, name,
				tableio.F(float64(st.trueF)/per, 2),
				tableio.F(float64(st.spurious)/per, 2),
				tableio.F(ratio, 1)+"x")
		}
	}
	tbl.Note("Every 16th touched 4KB block is write-protected. The veto policy keeps protected chunks on small pages.")
	return tbl, nil
}
