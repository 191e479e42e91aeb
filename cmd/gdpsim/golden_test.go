package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFigureGoldens pins the stdout bytes of the figure commands that no
// other golden covers: Figure 6 (cache partitioning, 4 cores) and Figure 7
// (the sensitivity panels), each at one workload per cell. Regenerate with
// `go test -run TestFigureGoldens -update ./cmd/gdpsim` when a change is
// meant to move them.
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []string{"fig6", "fig7"} {
		t.Run(fig, func(t *testing.T) {
			got := captureStdout(t, func() error {
				return run(context.Background(), []string{"-workloads", "1", "-instructions", "2000", "-interval", "2000", fig})
			})
			path := filepath.Join("testdata", fig+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s (run with -update to create it): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from %s (rerun with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s", fig, path, got, want)
			}
		})
	}
}
