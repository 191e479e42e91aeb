package runner

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestReadEntryFileMatchesReadFile: the entry reader returns exactly what
// os.ReadFile returns, at sizes around a page boundary and above the largest
// entry a private reference writes (about 157 KB), and fails like it on a
// missing path and a directory.
func TestReadEntryFileMatchesReadFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 4095, 4096, 200 << 10} {
		want := make([]byte, size)
		rng.Read(want)
		name := filepath.Join(dir, "entry")
		if err := os.WriteFile(name, want, 0o644); err != nil {
			t.Fatal(err)
		}
		ref, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readEntryFile(name)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, ref) || !bytes.Equal(got, want) {
			t.Fatalf("size %d: read %d bytes that differ from os.ReadFile's %d", size, len(got), len(ref))
		}
	}

	if _, err := readEntryFile(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing path: err = %v, want fs.ErrNotExist", err)
	}
	if b, err := readEntryFile(dir); err == nil {
		t.Fatalf("directory path: read %d bytes and no error", len(b))
	}
}
