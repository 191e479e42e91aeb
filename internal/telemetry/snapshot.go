package telemetry

// Snapshot types: a JSON-marshalable point-in-time copy of the registry,
// which the benchmark ledger reads its per-layer counters from.

// FamilySnapshot is one metric family with all its series.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one sample stream. Exactly one of Value (counter/gauge)
// or Histogram is populated, matching the family type.
type SeriesSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// HistogramSnapshot is a histogram's cumulative state.
type HistogramSnapshot struct {
	// Buckets[i] is the non-cumulative count of observations at or under
	// UpperBounds[i]; the final element counts the +Inf overflow bucket and
	// has no corresponding upper bound.
	UpperBounds []float64 `json:"upper_bounds"`
	Buckets     []uint64  `json:"buckets"`
	Count       uint64    `json:"count"`
	Sum         float64   `json:"sum"`
}

// Snapshot copies the registry's current state into plain JSON-ready values.
// Function-backed series are evaluated at snapshot time.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		series := f.sortedSeries()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, Series: make([]SeriesSnapshot, 0, len(series))}
		for _, s := range series {
			ss := SeriesSnapshot{}
			if len(f.labelNames) > 0 {
				ss.Labels = make(map[string]string, len(f.labelNames))
				for i, ln := range f.labelNames {
					ss.Labels[ln] = s.labelValues[i]
				}
			}
			switch f.typ {
			case typeCounter:
				v := float64(s.counter.Value())
				if s.counterFn != nil {
					v = float64(s.counterFn())
				}
				ss.Value = &v
			case typeGauge:
				v := float64(s.gauge.Value())
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				}
				ss.Value = &v
			case typeHistogram:
				h := s.hist
				hs := &HistogramSnapshot{
					UpperBounds: append([]float64(nil), h.bounds...),
					Buckets:     make([]uint64, len(h.counts)),
					Count:       h.Count(),
					Sum:         h.Sum(),
				}
				for i := range h.counts {
					hs.Buckets[i] = h.counts[i].Load()
				}
				ss.Histogram = hs
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}
