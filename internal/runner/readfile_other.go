//go:build !unix

package runner

import "os"

// readEntryFile reads a whole cache entry.
func readEntryFile(name string) ([]byte, error) { return os.ReadFile(name) }
