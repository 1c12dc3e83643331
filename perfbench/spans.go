package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Span names. gen is the root of one segment's life, from its due time
// to its delivery; the others are the benchmark's own calls into a layer
// and the wire time between Send returning and the sink callback.
const (
	spanGen     = "gen"
	spanProcess = "core.process"
	spanIngest  = "core.ingest"
	spanSend    = "transport.send"
	spanWire    = "transport.wire"
	spanSession = "transport.session"
)

// span is one traced interval, keyed by (device, segment ID); Parent names
// the span of the same key that caused it ("" for a root). Times are
// nanoseconds since the pass started.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Device uint64 `json:"device"`
	Seg    uint64 `json:"seg"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory until the run writes
// them out.
type spanLog struct{ spans []span }

func (l *spanLog) add(name, parent string, device, seg uint64, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Device: device, Seg: seg, Start: start, End: end})
}

// durations returns every span of one name as µs.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// total is the summed duration of every span of one name.
func (l *spanLog) total(name string) float64 {
	var sum int64
	for _, s := range l.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return float64(sum) / 1e9
}

// selfTimes returns, in µs, each span of one name minus the part of its
// interval that its children (same key, Parent == name) cover.
func (l *spanLog) selfTimes(name string) []float64 {
	type key struct{ dev, seg uint64 }
	children := map[key][][2]int64{}
	for _, s := range l.spans {
		if s.Parent == name {
			k := key{s.Device, s.Seg}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		covered := int64(0)
		ivs := children[key{s.Device, s.Seg}]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		cur := s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], cur), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// writeSpans dumps spans as JSON lines, tagged with their log's index, to
// one file per run under .bench_build/spans/ in the working directory.
func writeSpans(workload string, seed int64, logs []*spanLog) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for pass, l := range logs {
		for _, s := range l.spans {
			line := struct {
				Pass int `json:"pass"`
				span
			}{pass, s}
			if err := enc.Encode(line); err != nil {
				_ = f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
