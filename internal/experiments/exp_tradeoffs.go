package experiments

import (
	"context"
	"sort"

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

// protProfile is the deterministic protection profile derived from a
// workload's touched blocks: every 16th distinct 4KB block carries
// sub-page write protection.
type protProfile struct {
	protected map[addr.PN]bool
	protChunk map[addr.PN]bool
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
// spuriously on stores to their other blocks. The veto policy
// (DenyPromotion) shows the OS fix: keep chunks with sub-page
// protection on small pages.
//
// The profile pass must finish before the scheme passes can start, so
// the experiment stages its submissions: all profiles first, then each
// workload's four schemes as its profile lands (tasks themselves never
// wait on other tasks).
func Protect(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	schemeNames := []string{"4KB", "32KB", "4KB/32KB", "4KB/32KB veto"}
	profiles := make([]*engine.Future[protProfile], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		profiles[i] = engine.Go(o.Engine, ctx, "protect profile "+s.Name,
			func(ctx context.Context) (protProfile, error) {
				var blocks []addr.PN
				seen := map[addr.PN]bool{}
				if _, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
					for _, ref := range batch {
						b := addr.Block(ref.Addr)
						if !seen[b] {
							seen[b] = true
							blocks = append(blocks, b)
						}
					}
				}); err != nil {
					return protProfile{}, err
				}
				sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
				p := protProfile{protected: map[addr.PN]bool{}, protChunk: map[addr.PN]bool{}}
				for i := 0; i < len(blocks); i += 16 {
					p.protected[blocks[i]] = true
					p.protChunk[addr.ChunkOfBlock(blocks[i])] = true
				}
				return p, nil
			})
	}
	schemes := make([][]*engine.Future[protStats], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		prof, err := profiles[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		for _, name := range schemeNames {
			name := name
			schemes[i] = append(schemes[i], engine.Go(o.Engine, ctx, "protect "+s.Name+" "+name,
				func(ctx context.Context) (protStats, error) {
					var pol policy.Assigner
					switch name {
					case "4KB":
						pol = policy.NewSingle(addr.Size4K)
					case "32KB":
						pol = policy.NewSingle(addr.Size32K)
					case "4KB/32KB":
						pol = policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
					default:
						veto := policy.DefaultTwoSizeConfig(T)
						veto.DenyPromotion = func(c addr.PN) bool { return prof.protChunk[c] }
						pol = policy.NewTwoSize(veto)
					}
					var st protStats
					_, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
						//paperlint:ignore oneloop the store check needs each reference's kind and mapped page, and no TLB; it belongs to this experiment alone
						for _, ref := range batch {
							res := pol.Assign(ref.Addr)
							if ref.Kind != trace.Store {
								continue
							}
							st.stores++
							if prof.protected[addr.Block(ref.Addr)] {
								st.trueF++
								continue
							}
							// Spurious: the mapped page spans a protected block
							// the store did not touch.
							if uint(res.Page.Shift) > addr.BlockShift {
								first := addr.FirstBlock(res.Page.Number)
								for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
									if prof.protected[first+i] {
										st.spurious++
										break
									}
								}
							}
						}
					})
					return st, err
				}))
		}
	}
	tbl := tableio.New("Extension: sub-page write protection (faults per 1000 stores)",
		"Program", "Scheme", "true", "spurious", "spurious ratio")
	for i, s := range specs {
		for j, name := range schemeNames {
			st, err := schemes[i][j].Wait(ctx)
			if err != nil {
				return nil, err
			}
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
