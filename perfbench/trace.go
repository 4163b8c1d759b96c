package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smrp/internal/core"
)

// layer is a module the benchmark's spans are attributed to.
type layer uint8

const (
	layerBench     layer = iota // the harness itself (and, over HTTP, the client and transport)
	layerServer                 // server.Server.Handler().ServeHTTP, actor mailbox included
	layerCore                   // core.Session calls
	layerHierarchy              // hierarchy.NLevelSession calls
	numLayers
)

var layerNames = [numLayers]string{"bench", "server", "core", "hierarchy"}

// allocSampleEvery is the join sampling period for allocation counts. A
// sampled join runs alone (the other workers wait) between two
// runtime.ReadMemStats calls, so its counts are its own.
const allocSampleEvery = 16

// span is one timed interval of one operation. Depth 0 is the operation's
// root; depth d+1 spans are calls made inside a depth-d span.
type span struct {
	op         uint64
	depth      uint8
	layer      layer
	kind       kind
	start, end int64 // ns since the tracer's epoch
}

type allocSample struct{ objs, bytes uint64 }

// work is the counter delta a layer call caused, taken at the boundary.
type work struct {
	calls                           int
	enumSettled, healSettled, cands int
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch  time.Time
	nextOp atomic.Uint64
	// excl serializes an allocation-sampled call against every other traced
	// call, so ReadMemStats deltas are not polluted by other workers.
	excl sync.RWMutex

	mu     sync.Mutex
	bufs   []*traceBuf
	shared []span // spans recorded on goroutines the harness does not own
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// traceBuf is one worker's span buffer; nil means tracing is off, and every
// method is then a plain call.
type traceBuf struct {
	t      *tracer
	spans  []span
	allocs []allocSample
	joins  int
	work   map[[2]uint8]*work
}

// worker returns a new span buffer for one goroutine (nil when t is nil).
func (t *tracer) worker() *traceBuf {
	if t == nil {
		return nil
	}
	b := &traceBuf{t: t, spans: make([]span, 0, 1<<14), work: map[[2]uint8]*work{}}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record adds a span from a goroutine without its own buffer.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.shared = append(t.shared, s)
	t.mu.Unlock()
}

// begin starts an operation's root span.
func (b *traceBuf) begin() (op uint64, start int64) {
	if b == nil {
		return 0, 0
	}
	return b.t.nextOp.Add(1), b.t.now()
}

// end closes the root span begun at start.
func (b *traceBuf) end(op uint64, k kind, start int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{op: op, layer: layerBench, kind: k, start: start, end: b.t.now()})
}

// call runs f as a depth-1 span of op in layer l. stats, when non-nil,
// reads the counters of the session f works on; their delta is attributed to
// (l, k). Every allocSampleEvery-th join runs alone with its allocations
// counted.
func (b *traceBuf) call(op uint64, l layer, k kind, stats func() core.Stats, f func()) {
	if b == nil {
		f()
		return
	}
	var st0 core.Stats
	if stats != nil {
		st0 = stats()
	}
	sample := false
	if k == kJoin {
		sample = b.joins%allocSampleEvery == 0
		b.joins++
	}
	var start, end int64
	if sample {
		var m0, m1 runtime.MemStats
		b.t.excl.Lock()
		runtime.ReadMemStats(&m0)
		start = b.t.now()
		f()
		end = b.t.now()
		runtime.ReadMemStats(&m1)
		b.t.excl.Unlock()
		b.allocs = append(b.allocs, allocSample{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc})
	} else {
		b.t.excl.RLock()
		start = b.t.now()
		f()
		end = b.t.now()
		b.t.excl.RUnlock()
	}
	b.spans = append(b.spans, span{op: op, depth: 1, layer: l, kind: k, start: start, end: end})
	key := [2]uint8{uint8(l), uint8(k)}
	w := b.work[key]
	if w == nil {
		w = &work{}
		b.work[key] = w
	}
	w.calls++
	if stats != nil {
		st1 := stats()
		w.enumSettled += st1.EnumSettled - st0.EnumSettled
		w.healSettled += st1.HealSettled - st0.HealSettled
		w.cands += st1.CandidatesSeen - st0.CandidatesSeen
	}
}

// spans returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := slices.Clone(t.shared)
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the spans one
// level deeper in the same operation (calls inside one span are sequential).
func selfTimes(spans []span) []int64 {
	byOp := map[uint64][]int{}
	for i, s := range spans {
		byOp[s.op] = append(byOp[s.op], i)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		for _, j := range byOp[s.op] {
			c := spans[j]
			if c.depth == s.depth+1 && c.start >= s.start && c.end <= s.end {
				self[i] -= c.end - c.start
			}
		}
	}
	return self
}

// selfShare is layer l's share of all self time (which sums to the roots'
// total duration).
func (t *tracer) selfShare(l layer) float64 {
	spans := t.all()
	self := selfTimes(spans)
	var mine, total int64
	for i, s := range spans {
		total += self[i]
		if s.layer == l {
			mine += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(mine) / float64(total)
}

// perJoin averages f over the allocation-sampled joins (0 without samples).
func (t *tracer) perJoin(f func(allocSample) float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, b := range t.bufs {
		for _, a := range b.allocs {
			sum += f(a)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeTable prints, per (layer, operation), the span count, latency and
// self-time quantiles, the share of all self time, and the work counters
// attributed at the boundary.
func (t *tracer) writeTable(out io.Writer) {
	spans := t.all()
	self := selfTimes(spans)
	type row struct {
		dur, self []float64
		selfSum   int64
	}
	rows := map[[2]uint8]*row{}
	var total int64
	for i, s := range spans {
		key := [2]uint8{uint8(s.layer), uint8(s.kind)}
		r := rows[key]
		if r == nil {
			r = &row{}
			rows[key] = r
		}
		r.dur = append(r.dur, float64(s.end-s.start)/1e6)
		r.self = append(r.self, float64(self[i])/1e6)
		r.selfSum += self[i]
		total += self[i]
	}
	t.mu.Lock()
	attributed := map[[2]uint8]*work{}
	for _, b := range t.bufs {
		for k, w := range b.work {
			a := attributed[k]
			if a == nil {
				a = &work{}
				attributed[k] = a
			}
			a.calls += w.calls
			a.enumSettled += w.enumSettled
			a.healSettled += w.healSettled
			a.cands += w.cands
		}
	}
	t.mu.Unlock()
	keys := make([][2]uint8, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]uint8) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	fmt.Fprintf(out, "spans (traced half): %d; self time sums to the root spans' duration\n", len(spans))
	fmt.Fprintf(out, "  %-10s %-8s %8s %9s %9s %10s %10s %11s %11s %9s\n",
		"layer", "op", "spans", "p50_ms", "p99_ms", "self_p50", "self_share", "enum/call", "heal/call", "cand/call")
	for _, k := range keys {
		r := rows[k]
		p99 := "-"
		if len(r.dur) >= p99MinSamples {
			p99 = fmt.Sprintf("%.4f", quantile(r.dur, 0.99))
		}
		share := 0.0
		if total > 0 {
			share = float64(r.selfSum) / float64(total)
		}
		enum, heal, cand := "-", "-", "-"
		if w := attributed[k]; w != nil && w.calls > 0 {
			enum = fmt.Sprintf("%.1f", float64(w.enumSettled)/float64(w.calls))
			heal = fmt.Sprintf("%.1f", float64(w.healSettled)/float64(w.calls))
			cand = fmt.Sprintf("%.1f", float64(w.cands)/float64(w.calls))
		}
		fmt.Fprintf(out, "  %-10s %-8s %8d %9.4f %9s %10.4f %10.4f %11s %11s %9s\n",
			layerNames[k[0]], kindNames[k[1]], len(r.dur), quantile(r.dur, 0.5), p99,
			quantile(r.self, 0.5), share, enum, heal, cand)
	}
}

// writeFiles writes every span as CSV to prefix.spans.csv.
func (t *tracer) writeFiles(prefix string) error {
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return err
	}
	f, err := os.Create(prefix + ".spans.csv")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,depth,layer,kind,start_ns,end_ns")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", s.op, s.depth, layerNames[s.layer], kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
