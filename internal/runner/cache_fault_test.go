package runner

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteDiskDurableAndReadable pins the hardened write path: the entry
// lands via tmp-fsync-rename, no tmp litter survives, and readDisk round-trips
// the bytes.
func TestWriteDiskDurableAndReadable(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !c.writeDisk("somekey", []byte(`{"v":1}`)) {
		t.Fatal("writeDisk failed")
	}
	raw, ok := c.readDisk("somekey")
	if !ok || string(raw) != `{"v":1}` {
		t.Fatalf("readDisk = %q, %v", raw, ok)
	}
	entries, err := filepath.Glob(filepath.Join(c.dir, "*", "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("tmp files left behind: %v", entries)
	}
}

// TestWriteDiskFaultInjected checks that a failed write behaves like any
// other failed disk write: writeDisk reports failure, nothing reaches the
// directory, and the caller's silent-optimization contract holds.
func TestWriteDiskFaultInjected(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.files.write = func(*os.File, []byte) (int, error) { return 0, syscall.EIO }
	if c.writeDisk("somekey", []byte(`{"v":1}`)) {
		t.Fatal("writeDisk succeeded under an injected EIO")
	}
	if fi, err := os.Stat(c.path("somekey")); err == nil {
		t.Fatalf("entry reached disk despite the injected fault: %v", fi.Name())
	}
}

// TestReadDiskFaultInjectedIsMiss checks that a read error degrades to a
// cache miss: the entry is on disk, but the failing read behaves as if it
// were not.
func TestReadDiskFaultInjectedIsMiss(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !c.writeDisk("somekey", []byte(`{"v":1}`)) {
		t.Fatal("writeDisk failed")
	}

	c.files.readFile = func(string) ([]byte, error) { return nil, syscall.EIO }
	if _, ok := c.readDisk("somekey"); ok {
		t.Fatal("readDisk hit under an injected EIO")
	}
	// The entry is intact underneath.
	c.files.readFile = readEntryFile
	if raw, ok := c.readDisk("somekey"); !ok || string(raw) != `{"v":1}` {
		t.Fatalf("readDisk after fault = %q, %v, want the intact entry", raw, ok)
	}
}
