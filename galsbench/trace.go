package main

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program. Name is
// "<layer>.<function>"; Parent is the index of the enclosing span, -1 at
// the top; Op is the op the call belongs to, -1 for set-up and the layer
// pass. Start and End are ns since the tracer started.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id for end and for children.
func (t *tracer) start(name string, parent, opID int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: opID, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, opID int, fn func()) {
	id := t.start(name, parent, opID)
	fn()
	t.end(id)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time in ns: the summed durations of
// its spans minus the parts of those intervals their children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[layerOf(s.Name)] += s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
// Children of one span may overlap when they run on different goroutines.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// traceFile is the span file a traced run writes.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns"`
}

// write saves the spans as gzipped JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, workload+"-seed"+strconv.FormatUint(seed, 10)+".json.gz")
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	err = json.NewEncoder(zw).Encode(traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfNS: selfTimes(t.spans)})
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return p, err
}
