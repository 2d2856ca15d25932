package deprcheck

import "deprcheck/old"

func uses() []uint {
	p := old.Legacy()  // want `use of deprecated function old.Legacy \(Deprecated: use Current.\)`
	_ = p.Small        // want `use of deprecated field old.Small \(Deprecated: use Shifts.\)`
	_ = p.Large        // current field: no finding
	_ = old.SmallShift // want `use of deprecated constant old.SmallShift \(Deprecated: use Shifts.\)`
	var q old.Pair     // want `use of deprecated type old.Pair \(Deprecated: use the N-size form.\)`
	_ = q
	return old.Current()
}
