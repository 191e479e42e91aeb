package runner

import (
	"os"
	"path/filepath"
	"strings"
)

// EntryPath is a key's on-disk location, for the external tests.
func EntryPath(c *Cache, key string) string { return c.path(key) }

// FastFiles gives c the file operations a fuzz body wants, which exercises
// decoding, not durability: its writes skip both fsyncs (the tmp file's and
// the shard directory's), and each tmp file is named after its pattern alone,
// without CreateTemp's random part. Only one write may then be in flight per
// key, and the code a write runs no longer varies with a random name, which a
// coverage-guided fuzzer would take for new behaviour.
func FastFiles(c *Cache) {
	c.files.createTemp = func(dir, pattern string) (*os.File, error) {
		return os.OpenFile(filepath.Join(dir, strings.Replace(pattern, "*", "", 1)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	}
	c.files.sync = func(*os.File) error { return nil }
	c.files.syncDir = func(string) {}
}
