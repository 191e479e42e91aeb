package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalLoad feeds arbitrary bytes to Load as a journal file. Load must
// either fail with *ErrBadJournal or return a good prefix — GoodSize bytes
// ending on a record boundary — plus a torn tail exactly when bytes remain
// after it, and must never panic. After a torn tail, reopening the file at
// GoodSize (what a resumed sweep does) must reload to the same records with
// no tail.
func FuzzJournalLoad(f *testing.F) {
	var good []byte
	for _, rec := range []Record{
		{Kind: KindHeader, Magic: Magic, Version: Version},
		cellRec("k1", "cell-1", `[{"cores":2}]`),
		cellRec("k2", "cell-2", `[{"cores":4}]`),
	} {
		line, err := frame(rec)
		if err != nil {
			f.Fatal(err)
		}
		good = append(good, line...)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Load(path)
		if err != nil {
			var bad *ErrBadJournal
			if !errors.As(err, &bad) {
				t.Fatalf("Load failed with %T (%v), want *ErrBadJournal", err, err)
			}
			return
		}
		if res.GoodSize < 0 || res.GoodSize > int64(len(data)) {
			t.Fatalf("GoodSize %d outside the %d-byte file", res.GoodSize, len(data))
		}
		if res.GoodSize > 0 && data[res.GoodSize-1] != '\n' {
			t.Fatalf("GoodSize %d does not end on a record boundary", res.GoodSize)
		}
		if res.TornTail != (res.GoodSize < int64(len(data))) {
			t.Fatalf("TornTail = %v with GoodSize %d of %d bytes", res.TornTail, res.GoodSize, len(data))
		}
		if len(res.Cells) > res.Count {
			t.Fatalf("%d distinct cells from %d cell records", len(res.Cells), res.Count)
		}
		if !res.TornTail {
			return
		}
		w, err := OpenAppend(path, res.GoodSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Load(path)
		if err != nil {
			t.Fatalf("reload after truncating the torn tail: %v", err)
		}
		if again.TornTail || again.Count != res.Count || !reflect.DeepEqual(again.Cells, res.Cells) {
			t.Fatalf("reload after truncating the torn tail = %+v, want the %d records of %+v", again, res.Count, res)
		}
	})
}
