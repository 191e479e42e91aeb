package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// spanRecorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: begin returns a no-op end function and records nothing,
// so workloads call it unconditionally.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (r *spanRecorder) begin(op, parent int, name string) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	r.mu.Unlock()
	start := time.Since(r.epoch).Nanoseconds()
	return id, func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].StartNS, r.spans[id-1].EndNS = start, end
		r.mu.Unlock()
	}
}

// time runs fn inside a span.
func (r *spanRecorder) time(op, parent int, name string, fn func(id int)) {
	id, end := r.begin(op, parent, name)
	fn(id)
	end()
}

// snapshot returns a copy of the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (two
// workers inside one parent) are merged first, so covered time is never
// counted twice, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if ke <= ks {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = ks, ke, true
			case ks <= curEnd:
				curEnd = max(curEnd, ke)
			default:
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[s.ID] = s.durNS() - covered
	}
	return self
}

// spanSummary aggregates spans by name: how many, total and self time.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(s.durNS()) / 1e6
		sum.SelfMS += float64(self[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, sum := range byName {
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeTrace writes the spans and their per-name summary to path.
func writeTrace(path string, spans []span) error {
	doc := struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{summarizeSpans(spans), spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
