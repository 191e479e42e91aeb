package gdp

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesBuild compiles every examples/* package and runs it, failing
// on a non-zero exit. The examples are the library's executable
// documentation; this keeps them honest against API changes, and their
// simulations are small (well under a second each), so running them is
// cheap. examples/scenarios checks that its rerun is byte-identical, so the
// scenario estimate path runs here too.
func TestExamplesBuild(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	built := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := "./" + filepath.Join("examples", e.Name())
		bin := filepath.Join(dir, e.Name())
		out, err := exec.Command(goBin, "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Errorf("%s does not compile:\n%s", pkg, out)
			continue
		}
		built++
		if out, err := exec.CommandContext(t.Context(), bin).CombinedOutput(); err != nil {
			t.Errorf("%s failed: %v\n%s", pkg, err, out)
		}
	}
	if built == 0 {
		t.Fatal("no example packages found")
	}
}
