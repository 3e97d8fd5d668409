package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateExperiments = flag.Bool("update-experiments", false, "rewrite the repository EXPERIMENTS.md from the dispatch registry")

// TestExperimentsDoc pins the committed EXPERIMENTS.md to the dispatch
// registry: adding, removing or re-describing an -exp mode without
// regenerating the table fails here, so the doc cannot drift from the
// vocabulary the binary actually accepts.
func TestExperimentsDoc(t *testing.T) {
	// Descriptions only — the run closures are never invoked.
	all := experimentRegistry(nil)
	want := experimentsMarkdown(all)
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	if *updateExperiments {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatalf("rewrite %s: %v", path, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing EXPERIMENTS.md (run with -update-experiments to generate): %v", err)
	}
	if string(got) != want {
		t.Fatalf("EXPERIMENTS.md is stale: regenerate with\n  go test ./cmd/pictor-bench/ -run TestExperimentsDoc -update-experiments")
	}
}

// TestExperimentRegistryComplete pins the registry's shape: every id
// resolves, every entry has a description, and the natural order puts
// fig6 before fig10 (string sort would not).
func TestExperimentRegistryComplete(t *testing.T) {
	all := experimentRegistry(nil)
	ids := experimentIDs(all)
	if len(ids) != len(all) {
		t.Fatalf("experimentIDs lists %d of %d registry entries", len(ids), len(all))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		e, ok := all[id]
		if !ok {
			t.Fatalf("experimentIDs lists unknown id %q", id)
		}
		if e.desc == "" {
			t.Fatalf("experiment %q has no description", id)
		}
		if seen[id] {
			t.Fatalf("experiment %q listed twice", id)
		}
		seen[id] = true
	}
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if pos["fig6"] > pos["fig10"] {
		t.Fatalf("natural order broken: fig6 at %d, fig10 at %d", pos["fig6"], pos["fig10"])
	}
}
