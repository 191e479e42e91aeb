package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/runner"
)

// Sweep cells are cached as []SweepRow. Their cache entries carry this flat
// binary layout instead of JSON, which a recalled cell would otherwise spend
// most of its CPU decoding:
//
//	row count (uvarint), then per row:
//	Cores (varint) | Mix | PRB (varint) | Kind | Name |
//	MeanIPCAbsRMS | MeanIPCRelRMS | MeanStallAbsRMS | AverageSTP
//
// A string is a uvarint byte length and its bytes; a metric is its IEEE-754
// bits, little-endian. Floats round-trip bit for bit (−0 and subnormals
// included). A non-finite metric cannot be written, as JSON could not write
// one either: such a row stays out of the disk layer and is recomputed by the
// next process. Zero rows read back as a nil slice.
func init() { runner.RegisterCodec(appendSweepRows, readSweepRows) }

// minRowBytes is the smallest encoded row: two one-byte varints, three empty
// strings' one-byte lengths and the four metrics.
const minRowBytes = 2 + 3 + 4*8

var errRowsPayload = errors.New("experiments: damaged sweep-row cache payload")

func appendSweepRows(b []byte, rows []SweepRow) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		metrics := [...]float64{r.MeanIPCAbsRMS, r.MeanIPCRelRMS, r.MeanStallAbsRMS, r.AverageSTP}
		b = binary.AppendVarint(b, int64(r.Cores))
		b = appendString(b, r.Mix)
		b = binary.AppendVarint(b, int64(r.PRB))
		b = appendString(b, r.Kind)
		b = appendString(b, r.Name)
		for _, m := range metrics {
			if math.IsNaN(m) || math.IsInf(m, 0) {
				return nil, fmt.Errorf("experiments: sweep row %d (%s %s) has a non-finite metric %v", i, r.Kind, r.Name, m)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m))
		}
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func readSweepRows(p []byte) ([]SweepRow, error) {
	n, k := binary.Uvarint(p)
	// A count the payload cannot hold is damage, and must not size an
	// allocation.
	if k <= 0 || n > uint64(len(p)-k)/minRowBytes {
		return nil, errRowsPayload
	}
	var rows []SweepRow
	if n > 0 {
		rows = make([]SweepRow, n)
	}
	d := rowDecoder{p: p[k:]}
	for i := range rows {
		r := &rows[i]
		r.Cores = d.int()
		r.Mix = d.string()
		r.PRB = d.int()
		r.Kind = d.string()
		r.Name = d.string()
		r.MeanIPCAbsRMS = d.metric()
		r.MeanIPCRelRMS = d.metric()
		r.MeanStallAbsRMS = d.metric()
		r.AverageSTP = d.metric()
	}
	if d.bad || len(d.p) != 0 {
		return nil, errRowsPayload
	}
	return rows, nil
}

// rowDecoder consumes a sweep-row payload. Reading past the end, an
// overlong varint, an int that does not fit or a non-finite metric sets bad
// and reads as zero from then on.
type rowDecoder struct {
	p   []byte
	bad bool
}

func (d *rowDecoder) int() int {
	x, k := binary.Varint(d.p)
	if k <= 0 || int64(int(x)) != x {
		d.bad, d.p = true, nil
		return 0
	}
	d.p = d.p[k:]
	return int(x)
}

func (d *rowDecoder) string() string {
	n, k := binary.Uvarint(d.p)
	if k <= 0 || n > uint64(len(d.p)-k) {
		d.bad, d.p = true, nil
		return ""
	}
	s := string(d.p[k : k+int(n)])
	d.p = d.p[k+int(n):]
	return s
}

func (d *rowDecoder) metric() float64 {
	if len(d.p) < 8 {
		d.bad, d.p = true, nil
		return 0
	}
	m := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	if math.IsNaN(m) || math.IsInf(m, 0) {
		d.bad = true
	}
	d.p = d.p[8:]
	return m
}
