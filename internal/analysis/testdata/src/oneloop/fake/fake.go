// Package fake mirrors the shapes the oneloop analyzer guards in the
// real repository: a page-size policy, a TLB, a cache whose Access is
// no TLB's, a working-set calculator of a concrete type, and core's
// loop that may call them.
package fake

type Page struct{ Number uint64 }

type Result struct{ Page Page }

type Assigner interface {
	Assign(va uint64) Result
	Name() string
}

type TLB interface {
	Access(va uint64, p Page) bool
}

type Single struct{}

func (Single) Assign(va uint64) Result { return Result{Page{va >> 12}} }

func (Single) Name() string { return "4KB" }

type FA struct{ hits int }

func (f *FA) Access(va uint64, p Page) bool { f.hits++; return false }

type Cache struct{}

func (c *Cache) Access(va uint64) bool { return false }

type Static struct{ steps int }

func (s *Static) Step(va uint64) { s.steps++ }

func (s *Static) Steps() int { return s.steps }

// Run is core's per-reference loop.
func Run(pol Assigner, t TLB, refs []uint64) {
	for _, va := range refs {
		t.Access(va, pol.Assign(va).Page)
	}
}
