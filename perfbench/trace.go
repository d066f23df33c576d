package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one operation share a request id; parent
// is the index of the enclosing span, or -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. Methods are
// safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	// chunks hold the spans in fixed-size blocks, so recording one never
	// copies the earlier ones inside some other span's bounds.
	chunks  [][]span
	n       int32
	req     int64
	emptyNS int64 // median duration of a span around nothing
	// outsideNS is the rest of a begin/end pair's cost, which lands in
	// the enclosing span's self time.
	outsideNS int64
}

// newTracer returns a tracer whose span cost is calibrated: emptyNS, the
// part of begin and end that falls inside a span's own bounds, which
// aggregate subtracts from every layer span's self time, and outsideNS.
func newTracer() *tracer {
	probe := &tracer{epoch: time.Now()}
	const n = 4000
	d := make([]float64, n)
	t0 := time.Now()
	for i := range d {
		s := probe.begin("", 0, -1)
		probe.end(s)
		d[i] = float64(probe.at(s).End - probe.at(s).Start)
	}
	pair := int64(time.Since(t0)) / n
	empty := int64(median(d))
	return &tracer{epoch: probe.epoch, emptyNS: empty, outsideNS: max(0, pair-empty)}
}

// spanChunk is the size of a tracer's span blocks.
const spanChunk = 4096

// slot appends a zero span and returns it with its index; the caller
// holds mu.
func (t *tracer) slot() (*span, int32) {
	if t.n%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
	i := t.n
	t.n++
	return t.at(i), i
}

// at returns span i.
func (t *tracer) at(i int32) *span { return &t.chunks[i/spanChunk][i%spanChunk] }

// all returns the recorded spans in order; call it once recording is done.
func (t *tracer) all() []span {
	out := make([]span, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c[:min(len(c), int(t.n)-len(out))]...)
	}
	return out
}

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextReq allocates a request id.
func (t *tracer) nextReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Start is read after the slot is taken, so allocating a block is
	// never charged to the span it opens.
	s, i := t.slot()
	s.Name, s.Req, s.Parent = name, req, parent
	s.Start = t.now()
	return i
}

// end closes the span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.at(i).End = end
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (httptrace
// callbacks), converting wall-clock instants onto the tracer's clock, and
// returns its index (-1 when nothing was recorded).
func (t *tracer) add(name string, req int64, parent int32, start, end time.Time) int32 {
	if t == nil || start.IsZero() || end.IsZero() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, i := t.slot()
	*s = span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	return i
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children are clipped to the parent's interval
// and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[int32(i)])
	}
	return self
}

// covered measures the union of the children's intervals inside p.
func covered(p span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanAgg totals the spans of one name.
type spanAgg struct {
	count int64
	self  int64 // summed self time, ns
	dur   int64 // summed duration, ns
}

// aggregate totals spans by name. Spans with a parent (layer calls) have
// emptyNS, the tracer's own cost inside a span, taken off their self time.
func aggregate(spans []span, emptyNS int64) map[string]*spanAgg {
	self := selfTimes(spans)
	out := make(map[string]*spanAgg)
	for i, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		a.count++
		if s.Parent >= 0 {
			self[i] = max(0, self[i]-emptyNS)
		}
		a.self += self[i]
		a.dur += s.End - s.Start
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
