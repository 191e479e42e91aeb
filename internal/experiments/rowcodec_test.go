package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// diskRoundTrip writes rows to a disk cache and reads them back through a new
// cache over the same directory, as a rerun of a sweep does.
func diskRoundTrip(t *testing.T, rows []SweepRow) ([]SweepRow, bool, runner.CacheStats) {
	t.Helper()
	dir := t.TempDir()
	c, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("rows", rows)
	fresh, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := runner.Lookup[[]SweepRow](fresh, "rows")
	return got, ok, c.DetailedStats()
}

// TestSweepRowCodecCoversEveryField sets every field of SweepRow, by
// reflection, to a distinct non-zero value and requires the rows to come back
// from disk reflect.DeepEqual and, for floats, bit for bit (−0, subnormals,
// ±MaxFloat64). A field the codec forgets reads back as zero and fails here;
// a field of a kind this test cannot fill fails it too, so the codec and the
// test learn about it together.
//
// Non-finite metrics (NaN, ±Inf) are not persisted, as they were not when
// entries were JSON: the row stays in the memory layer, no disk entry is
// written, and a new process recomputes the cell.
func TestSweepRowCodecCoversEveryField(t *testing.T) {
	floats := []float64{math.Copysign(0, -1), 5e-324, 0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, -2.5e-300, 123456.789}
	rows := make([]SweepRow, 3)
	fi := 0
	for r := range rows {
		v := reflect.ValueOf(&rows[r]).Elem()
		for i := range v.NumField() {
			f, name := v.Field(i), v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(int64((r*v.NumField()+i+1)*(1-2*(i%2))) << (8 * r))
			case reflect.String:
				f.SetString(fmt.Sprintf("%s-ñ-字-%d", name, r))
			case reflect.Float64:
				f.SetFloat(floats[fi%len(floats)])
				fi++
			default:
				t.Fatalf("SweepRow.%s is a %s: teach appendSweepRows, readSweepRows and this test", name, f.Kind())
			}
		}
	}

	got, ok, _ := diskRoundTrip(t, rows)
	if !ok || !reflect.DeepEqual(got, rows) {
		t.Fatalf("disk round-trip: hit %v\n got %+v\nwant %+v", ok, got, rows)
	}
	for r := range rows {
		want, have := reflect.ValueOf(rows[r]), reflect.ValueOf(got[r])
		for i := range want.NumField() {
			if want.Field(i).Kind() == reflect.Float64 &&
				math.Float64bits(want.Field(i).Float()) != math.Float64bits(have.Field(i).Float()) {
				t.Errorf("row %d %s: %v (bits %#x) came back as %v (bits %#x)", r, want.Type().Field(i).Name,
					want.Field(i).Float(), math.Float64bits(want.Field(i).Float()),
					have.Field(i).Float(), math.Float64bits(have.Field(i).Float()))
			}
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		row := rows[0]
		row.AverageSTP = bad
		if _, ok, stats := diskRoundTrip(t, []SweepRow{row}); ok || stats.DiskBytesWritten != 0 {
			t.Errorf("a row with metric %v was persisted (%d bytes written, read back %v)", bad, stats.DiskBytesWritten, ok)
		}
	}
}

// FuzzSweepRowsCodec: rows built from arbitrary fields encode and decode
// back to equal rows (non-finite metrics refuse to encode), and arbitrary
// bytes never panic the decoder. Whatever the decoder accepts re-encodes to
// rows that decode back equal.
func FuzzSweepRowsCodec(f *testing.F) {
	f.Add(4, "H", 32, "accuracy", "GDP-O", 0.031, 0.045, 1234.5, 0.0, uint8(3), []byte{})
	f.Add(-1, "字", 0, "", "ü", math.Copysign(0, -1), 5e-324, math.MaxFloat64, math.NaN(), uint8(1), []byte{1, 0})
	if seed, err := appendSweepRows(nil, []SweepRow{{Cores: 2, Mix: "M", Kind: "partitioning", Name: "MCP", AverageSTP: 1.5}}); err == nil {
		f.Add(0, "", 0, "", "", 0.0, 0.0, 0.0, 0.0, uint8(0), seed)
	}
	f.Fuzz(func(t *testing.T, cores int, mix string, prb int, kind, name string, a, b, c, d float64, n uint8, data []byte) {
		rows := make([]SweepRow, n%5)
		finite := true
		for _, m := range []float64{a, b, c, d} {
			finite = finite && !math.IsNaN(m) && !math.IsInf(m, 0)
		}
		for i := range rows {
			rows[i] = SweepRow{Cores: cores + i, Mix: mix, PRB: prb - i, Kind: kind, Name: name,
				MeanIPCAbsRMS: a, MeanIPCRelRMS: b, MeanStallAbsRMS: c, AverageSTP: d}
		}
		if _, err := appendSweepRows(nil, rows); err != nil {
			if finite || len(rows) == 0 {
				t.Fatalf("encode %+v: %v", rows, err)
			}
		} else {
			codecRoundTrip(t, rows)
		}

		if got, err := readSweepRows(data); err == nil {
			codecRoundTrip(t, got)
		}
	})
}

// codecRoundTrip encodes rows, decodes the payload and requires equal rows:
// reflect.DeepEqual (zero rows may come back nil), and the same payload when
// encoded again, which pins float bits such as −0.
func codecRoundTrip(t *testing.T, rows []SweepRow) {
	t.Helper()
	payload, err := appendSweepRows(nil, rows)
	if err != nil {
		t.Fatalf("encode %+v: %v", rows, err)
	}
	got, err := readSweepRows(payload)
	if err != nil {
		t.Fatalf("decode the encoding of %+v: %v", rows, err)
	}
	again, err := appendSweepRows(nil, got)
	if err != nil || !bytes.Equal(again, payload) || (len(rows) != 0 && !reflect.DeepEqual(got, rows)) {
		t.Fatalf("round-trip of %+v gave %+v (%v)", rows, got, err)
	}
}
