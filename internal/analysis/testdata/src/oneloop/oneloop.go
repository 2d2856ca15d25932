package oneloop

import "oneloop/fake"

// private keeps its own per-reference loop: every call is flagged.
func private(refs []uint64) {
	pol := fake.Single{}
	t := &fake.FA{}
	for _, va := range refs {
		res := pol.Assign(va)  // want `Assign on a oneloop/fake.Assigner outside core`
		t.Access(va, res.Page) // want `Access on a oneloop/fake.TLB outside core`
	}
}

// throughInterfaces calls through the interface types themselves.
func throughInterfaces(pol fake.Assigner, t fake.TLB, va uint64) bool {
	return t.Access(va, pol.Assign(va).Page) // want `Access on a oneloop/fake.TLB` `Assign on a oneloop/fake.Assigner`
}

// ignored keeps its loop with a reason: one directive on the loop
// covers every call in it.
func ignored(refs []uint64) {
	pol := fake.Single{}
	t := &fake.FA{}
	//paperlint:ignore oneloop models a structure only this experiment has
	for _, va := range refs {
		res := pol.Assign(va)
		t.Access(va, res.Page)
	}
}

// throughCore runs the pass through core's loop: nothing to flag.
func throughCore(refs []uint64) {
	fake.Run(fake.Single{}, &fake.FA{}, refs)
}

// cacheOnly calls an Access that is no TLB's.
func cacheOnly(c *fake.Cache, refs []uint64) int {
	n := 0
	for _, va := range refs {
		if !c.Access(va) {
			n++
		}
	}
	return n
}

// concrete steps a working-set calculator itself: the configured method
// is flagged, its other methods are not.
func concrete(s *fake.Static, refs []uint64) int {
	for _, va := range refs {
		s.Step(va) // want `\(\*oneloop/fake\.Static\)\.Step outside core`
	}
	return s.Steps()
}
