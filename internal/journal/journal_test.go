package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k1", "k2"} {
		rec := Record{Kind: KindCell, Key: key, Label: "cell-" + key, Rows: json.RawMessage(`[{"cores":2}]`)}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("Load counted %d records, want 2", res.Count)
	}
}

func TestUnknownKindSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{{Kind: "future-extension"}, {Kind: KindCell, Key: "k1"}} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	res, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("Load counted %d records, want the cell record only", res.Count)
	}
}

// TestTornTail simulates a SIGKILL mid-append: the final record is cut short
// at every byte boundary before its closing brace, and every truncation must
// load as the intact prefix.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindCell, Key: "k1", Rows: json.RawMessage(`[1]`)}); err != nil {
		t.Fatal(err)
	}
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindCell, Key: "k2", Rows: json.RawMessage(`[2]`)}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Only the final newline can go without tearing the record.
	for cut := intact.Size() + 1; cut < int64(len(full))-1; cut++ {
		torn := filepath.Join(t.TempDir(), "torn.journal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Load(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if res.Count != 1 {
			t.Fatalf("cut at %d: loaded %d records, want the intact one", cut, res.Count)
		}
	}
}

func TestMissingFileIsFreshStart(t *testing.T) {
	res, err := Load(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("Load(missing) = %+v, want empty", res)
	}
}
