package twopage_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"twopage/internal/experiments"
)

// Regenerate the golden corpus with:
//
//	go test -run TestGolden -update   (or: make golden-update)
var update = flag.Bool("update", false, "rewrite testdata/golden and testdata/tlbsim from current output")

// goldenPath maps an experiment ID to its golden file. IDs like
// "table3.1" are already safe filenames.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// renderGolden runs one experiment at the golden scale and returns its
// rendered table with the single time-dependent cell masked.
func renderGolden(t *testing.T, id string) []byte {
	t.Helper()
	var sb bytes.Buffer
	r := experiments.NewRunner(
		experiments.WithScale(0.01),
		experiments.WithWorkloads("li", "worm"),
		experiments.WithOut(&sb),
	)
	if err := r.Run(context.Background(), id); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return []byte(maskTimings.ReplaceAllString(sb.String(), "T"))
}

// TestGolden pins the rendered output of every registered experiment,
// byte for byte, against testdata/golden. Any drift — a changed
// number, a reordered row, even a respaced column — fails the suite
// until the change is acknowledged with -update.
func TestGolden(t *testing.T) {
	all := experiments.All()
	if len(all) == 0 {
		t.Fatal("no experiments registered")
	}
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got := renderGolden(t, e.ID)
			if len(got) == 0 {
				t.Fatalf("%s rendered no output", e.ID)
			}
			path := goldenPath(e.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `make golden-update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output drifted from %s\n-- got --\n%s\n-- want --\n%s", path, got, want)
			}
		})
	}
}

// TestGoldenCorpusComplete fails when testdata/golden contains stale
// files for experiments that no longer exist, so the corpus and the
// registry cannot drift apart silently.
func TestGoldenCorpusComplete(t *testing.T) {
	known := make(map[string]bool)
	for _, e := range experiments.All() {
		known[e.ID+".txt"] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden corpus missing (run `make golden-update`): %v", err)
	}
	for _, ent := range entries {
		if !known[ent.Name()] {
			t.Errorf("stale golden file %s: no experiment with that ID", ent.Name())
		}
	}
	if len(entries) != len(known) {
		t.Errorf("corpus has %d files, registry has %d experiments", len(entries), len(known))
	}
}
