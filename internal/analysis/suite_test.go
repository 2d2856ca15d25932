package analysis_test

import (
	"testing"

	"twopage/internal/analysis"
	"twopage/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", "determinism", analysis.Determinism())
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", "hotalloc", analysis.HotAlloc())
}

func TestPowTwo(t *testing.T) {
	cfg := analysis.PowTwoConfig{
		Targets: []analysis.PowTwoTarget{
			{Func: "powtwo/fake.NewSingle", Args: []int{0}},
			{Func: "powtwo/fake.Measure", Rest: 1},
		},
		Geometries: []analysis.PowTwoGeometry{
			{
				Type:       "powtwo/fake.Config",
				PowFields:  []string{"Block"},
				TotalField: "Entries",
				WaysField:  "Ways",
			},
		},
		Ascending: []analysis.PowTwoAscending{
			{Func: "powtwo/fake.NewSizeClasses"},
		},
		Validators: []string{"MustPow2"},
	}
	analysistest.Run(t, "testdata", "powtwo", analysis.PowTwo(cfg))
}

func TestCtxCheck(t *testing.T) {
	analysistest.Run(t, "testdata", "ctxcheck", analysis.CtxCheck())
}

func TestErrFmt(t *testing.T) {
	analysistest.Run(t, "testdata", "errfmt", analysis.ErrFmt())
}

func TestMergeCheck(t *testing.T) {
	analysistest.Run(t, "testdata", "mergecheck", analysis.MergeCheck())
}

func TestKeyCheck(t *testing.T) {
	analysistest.Run(t, "testdata", "keycheck", analysis.KeyCheck())
}

func TestDeprCheck(t *testing.T) {
	analysistest.Run(t, "testdata", "deprcheck", analysis.DeprCheck())
}

func TestOneLoop(t *testing.T) {
	cfg := analysis.OneLoopConfig{
		Interfaces: []string{"oneloop/fake.Assigner", "oneloop/fake.TLB"},
		Methods:    []string{"(*oneloop/fake.Static).Step"},
	}
	analysistest.Run(t, "testdata", "oneloop", analysis.OneLoop(cfg))
}
