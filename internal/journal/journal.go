// Package journal is what is left of the sweep journal: a plain JSON-lines
// writer and a line counter.
//
// Deprecated: the sweep journal was deleted; a killed sweep resumes from its
// -cache-dir (runner.NewDiskCache), the one durable store. These stubs write
// one unframed JSON record per line, with no header, checksum or fsync, and
// exist only because the benchmark ledger's journal probe still calls them.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// KindCell is the kind of a cell record.
//
// Deprecated: see the package comment.
const KindCell = "cell"

// Record is one journal line.
//
// Deprecated: see the package comment.
type Record struct {
	Kind  string          `json:"kind"`
	Key   string          `json:"key,omitempty"`
	Label string          `json:"label,omitempty"`
	Rows  json.RawMessage `json:"rows,omitempty"`
}

// Writer appends records to a file.
//
// Deprecated: see the package comment.
type Writer struct{ f *os.File }

// Create starts an empty journal at path, truncating any existing file.
//
// Deprecated: see the package comment.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	return &Writer{f: f}, nil
}

// Append writes one record as a JSON line.
func (w *Writer) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	_, err = w.f.Write(append(line, '\n'))
	return err
}

// Close closes the file.
func (w *Writer) Close() error { return w.f.Close() }

// LoadResult is the outcome of Load.
//
// Deprecated: see the package comment.
type LoadResult struct {
	// Count is the number of lines that decode as a cell record.
	Count int
}

// Load counts the cell records of a journal; a missing file holds none.
//
// Deprecated: see the package comment.
func Load(path string) (*LoadResult, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &LoadResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	res := &LoadResult{}
	for line := range bytes.Lines(raw) {
		var rec Record
		if json.Unmarshal(line, &rec) == nil && rec.Kind == KindCell {
			res.Count++
		}
	}
	return res, nil
}
