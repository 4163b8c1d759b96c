package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smrp/internal/core"
	smrpmetrics "smrp/internal/metrics"
)

// kind is an operation class with its own latency samples.
type kind int

const (
	kJoin kind = iota
	kLeave
	kRestore
	kRepair
	// Not operations: serve-mix's open-loop breakdown. An operation's own
	// latency runs from its send; these run from its due time.
	kLate  // due until a connection claimed it: timer lateness or every connection busy
	kQueue // a join claimed until sent: waiting for an earlier conflicting request
	kDue   // a join due until its response arrived
	numKinds
)

var kindNames = [numKinds]string{"join", "leave", "restore", "repair", "late", "queue", "due"}

// opLog is one worker's record of a phase.
type opLog struct {
	start     time.Time           // the phase start; zero outside a phase
	lat       [numKinds][]float64 // milliseconds
	at        [numKinds][]float64 // completion, seconds after start
	attempted int
	failed    int
	expected  map[string]int // predicted domain outcomes that are not failures
	failures  []string       // the first few failure messages
}

func newOpLog() *opLog { return &opLog{expected: map[string]int{}} }

// ok records a completed operation of kind k that took d.
func (l *opLog) ok(k kind, d time.Duration) {
	l.attempted++
	l.sample(k, d)
}

// sample records a latency of kind k completed now.
func (l *opLog) sample(k kind, d time.Duration) {
	l.lat[k] = append(l.lat[k], float64(d)/1e6)
	l.at[k] = append(l.at[k], time.Since(l.start).Seconds())
}

// expect records a completed operation whose predicted outcome was a domain
// refusal (a parked joiner, a leave of a parked member, …).
func (l *opLog) expect(k kind, d time.Duration, outcome string) {
	l.ok(k, d)
	l.expected[outcome]++
}

// fail records an attempted operation that failed.
func (l *opLog) fail(format string, args ...any) {
	l.attempted++
	l.failed++
	if len(l.failures) < 10 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

func (l *opLog) count(k kind) int { return len(l.lat[k]) }

// completed counts operations that finished with a predicted outcome.
func (l *opLog) completed() int {
	n := 0
	for k := kind(0); k < kLate; k++ {
		n += len(l.lat[k])
	}
	return n
}

func mergeLogs(logs ...*opLog) *opLog {
	out := newOpLog()
	for _, l := range logs {
		if l == nil {
			continue
		}
		for k := range l.lat {
			out.lat[k] = append(out.lat[k], l.lat[k]...)
			out.at[k] = append(out.at[k], l.at[k]...)
		}
		out.attempted += l.attempted
		out.failed += l.failed
		for o, n := range l.expected {
			out.expected[o] += n
		}
		out.failures = append(out.failures, l.failures...)
	}
	return out
}

// phase is one measured stretch of a run: bounded by time, or by an
// operation count in --determinism mode.
type phase struct {
	dur     time.Duration
	maxOps  int
	workers int
	tr      *tracer // nil: tracing off
	// replay, when set, holds core-layer spans a workload measured by
	// replaying the traced half's operations directly (serve-mix).
	replay *tracer
	// history asks a workload to keep its operation history through this
	// untraced phase, for a replay after the traced one.
	history bool

	start time.Time
	until time.Time
	ops   atomic.Int64

	log  *opLog
	wall time.Duration
	cpu  time.Duration // process user+sys CPU over the phase
	cpu0 time.Duration
}

func newPhase(dur time.Duration, maxOps, workers int, tr *tracer) *phase {
	return &phase{dur: dur, maxOps: maxOps, workers: workers, tr: tr, log: newOpLog()}
}

// begin starts the phase clock.
func (p *phase) begin() {
	p.cpu0 = rusageCPU()
	p.start = time.Now()
	p.until = p.start.Add(p.dur)
}

// newLog returns a log whose samples are stamped relative to the phase
// start; call it after begin.
func (p *phase) newLog() *opLog {
	l := newOpLog()
	l.start = p.start
	return l
}

// more reports whether a closed-loop worker should issue another operation,
// claiming it against the operation budget in --determinism mode.
func (p *phase) more() bool {
	if p.maxOps > 0 {
		return p.ops.Add(1) <= int64(p.maxOps)
	}
	return time.Now().Before(p.until)
}

// end stops the phase clock and folds the workers' logs in.
func (p *phase) end(logs ...*opLog) {
	p.wall = time.Since(p.start)
	p.cpu = rusageCPU() - p.cpu0
	p.log = mergeLogs(append([]*opLog{p.log}, logs...)...)
}

// runWorkers runs fn on p.workers goroutines, each with its own log, and
// waits for all of them.
func (p *phase) runWorkers(fn func(w int, log *opLog) error) error {
	logs := make([]*opLog, p.workers)
	errs := make([]error, p.workers)
	var wg sync.WaitGroup
	p.begin()
	for w := 0; w < p.workers; w++ {
		logs[w] = p.newLog()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w, logs[w])
		}(w)
	}
	wg.Wait()
	p.end(logs...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseWindows is how many equal windows a phase's latency medians and
// rates are taken over. A phase reports the mean of the middle 60% of its
// window values (trimmedMean), so a burst of interference from outside the
// process moves a few windows, not the result, while effects that recur in
// every window, such as GC cycles, still count in full.
const phaseWindows = 10

// minWindowSamples is the fewest samples a window needs to yield a median.
const minWindowSamples = 10

// windowOf returns which of the phase's windows a completion at `at`
// seconds falls in.
func (p *phase) windowOf(at float64) int {
	return min(int(at/p.wall.Seconds()*phaseWindows), phaseWindows-1)
}

// windowedQuantile is the trimmed mean over the phase's windows of the
// q-quantile of kind k's latencies completed in each window, falling back to
// the whole phase when no window holds minWindowSamples.
func (p *phase) windowedQuantile(k kind, q float64) float64 {
	var per [phaseWindows][]float64
	for i, at := range p.log.at[k] {
		w := p.windowOf(at)
		per[w] = append(per[w], p.log.lat[k][i])
	}
	var vals []float64
	for _, s := range per {
		if len(s) >= minWindowSamples {
			vals = append(vals, quantile(s, q))
		}
	}
	if len(vals) == 0 {
		return quantile(p.log.lat[k], q)
	}
	return trimmedMean(vals)
}

// windowedRate is the trimmed mean over the phase's windows of completed
// operations per second.
func (p *phase) windowedRate() float64 {
	var ops [phaseWindows]float64
	for k := kind(0); k < kLate; k++ {
		for _, at := range p.log.at[k] {
			ops[p.windowOf(at)]++
		}
	}
	rates := make([]float64, 0, phaseWindows)
	for _, c := range ops {
		rates = append(rates, c/(p.wall.Seconds()/phaseWindows))
	}
	return trimmedMean(rates)
}

// cpuPerOp is the process CPU microseconds per completed operation.
func (p *phase) cpuPerOp() float64 {
	return float64(p.cpu) / 1e3 / float64(max(p.log.completed(), 1))
}

// trimmedMean is the mean of xs without its lowest and highest fifth.
func trimmedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := len(s) / 5
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile returns the q-quantile of xs (nearest rank), 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// state is the deterministic work a bench has done so far plus its
// standing memory. Two single-worker runs of one seed and operation count
// produce equal states.
type state struct {
	core          core.Stats // summed over every session
	spfHits       uint64     // per-cache SPF hits/misses/delta repairs
	spfMisses     uint64
	spfDeltas     uint64
	cacheEntries  int
	sessions      int
	sparse        int // sessions on sparse tree storage
	standingTotal int64
	standingMax   int64
	graphBytes    int64
	spf           smrpmetrics.SPFStats // process-wide SPF counters (--determinism only)
}

// sub returns the counter deltas s - prev; gauges keep s's value.
func (s state) sub(prev state) state {
	d := s
	c, p := &d.core, prev.core
	c.Joins -= p.Joins
	c.Leaves -= p.Leaves
	c.Reshapes -= p.Reshapes
	c.ReshapeChecks -= p.ReshapeChecks
	c.SHRUpdates -= p.SHRUpdates
	c.SHRComputes -= p.SHRComputes
	c.QueryMessages -= p.QueryMessages
	c.CandidatesSeen -= p.CandidatesSeen
	c.Parks -= p.Parks
	c.Readmissions -= p.Readmissions
	c.StrategyFallbacks -= p.StrategyFallbacks
	c.BatchJoins -= p.BatchJoins
	c.EnumSettled -= p.EnumSettled
	c.HealSettled -= p.HealSettled
	d.spfHits -= prev.spfHits
	d.spfMisses -= prev.spfMisses
	d.spfDeltas -= prev.spfDeltas
	return d
}

func addStats(a *core.Stats, b core.Stats) {
	a.Joins += b.Joins
	a.Leaves += b.Leaves
	a.Reshapes += b.Reshapes
	a.ReshapeChecks += b.ReshapeChecks
	a.SHRUpdates += b.SHRUpdates
	a.SHRComputes += b.SHRComputes
	a.QueryMessages += b.QueryMessages
	a.CandidatesSeen += b.CandidatesSeen
	a.Parks += b.Parks
	a.Readmissions += b.Readmissions
	a.StrategyFallbacks += b.StrategyFallbacks
	a.BatchJoins += b.BatchJoins
	a.EnumSettled += b.EnumSettled
	a.HealSettled += b.HealSettled
}

// addSession folds one session's counters and footprint into s.
func (s *state) addSession(st core.Stats, standing int64, sparse bool) {
	addStats(&s.core, st)
	s.sessions++
	if sparse {
		s.sparse++
	}
	s.standingTotal += standing
	s.standingMax = max(s.standingMax, standing)
}

func (s state) String() string {
	c := s.core
	return fmt.Sprintf("joins=%d leaves=%d enum_settled=%d heal_settled=%d candidates=%d parks=%d readmissions=%d reshapes=%d shr_updates=%d spf_cache(h/m/d)=%d/%d/%d entries=%d sessions=%d sparse=%d standing_bytes=%d",
		c.Joins, c.Leaves, c.EnumSettled, c.HealSettled, c.CandidatesSeen, c.Parks, c.Readmissions, c.Reshapes,
		c.SHRUpdates, s.spfHits, s.spfMisses, s.spfDeltas, s.cacheEntries, s.sessions, s.sparse, s.standingTotal)
}

// procMetrics is what the Go runtime and the kernel report about the process
// over a measured stretch.
type procMetrics struct {
	cpu         time.Duration // user+sys CPU (getrusage)
	busyFrac    float64       // cpu / wall / nproc
	gcFrac      float64       // GC CPU over all CPU, from runtime/metrics
	maxLiveHeap uint64        // highest /gc/heap/live:bytes seen
}

// procWatch samples the live heap in the background while a stretch runs.
type procWatch struct {
	wall0        time.Time
	cpu0         time.Duration
	gc0, total0  float64
	stopc        chan struct{}
	done         chan struct{}
	maxLive      atomic.Uint64
	liveSample   []metrics.Sample
	cpuSamples   []metrics.Sample
	samplePeriod time.Duration
}

const (
	metricLive    = "/gc/heap/live:bytes"
	metricGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCP = "/cpu/classes/total:cpu-seconds"
)

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startProc() *procWatch {
	w := &procWatch{
		stopc:        make(chan struct{}),
		done:         make(chan struct{}),
		liveSample:   []metrics.Sample{{Name: metricLive}},
		cpuSamples:   []metrics.Sample{{Name: metricGCCPU}, {Name: metricTotalCP}},
		samplePeriod: 10 * time.Millisecond,
	}
	metrics.Read(w.cpuSamples)
	w.gc0, w.total0 = w.cpuSamples[0].Value.Float64(), w.cpuSamples[1].Value.Float64()
	w.wall0 = time.Now()
	w.cpu0 = rusageCPU()
	w.sampleLive()
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-t.C:
				w.sampleLive()
			}
		}
	}()
	return w
}

func (w *procWatch) sampleLive() {
	metrics.Read(w.liveSample)
	if v := w.liveSample[0].Value.Uint64(); v > w.maxLive.Load() {
		w.maxLive.Store(v)
	}
}

func (w *procWatch) stop() procMetrics {
	close(w.stopc)
	<-w.done
	w.sampleLive()
	wall := time.Since(w.wall0)
	cpu := rusageCPU() - w.cpu0
	metrics.Read(w.cpuSamples)
	gc := w.cpuSamples[0].Value.Float64() - w.gc0
	total := w.cpuSamples[1].Value.Float64() - w.total0
	pm := procMetrics{
		cpu:         cpu,
		busyFrac:    cpu.Seconds() / wall.Seconds() / float64(runtime.NumCPU()),
		maxLiveHeap: w.maxLive.Load(),
	}
	if total > 0 {
		pm.gcFrac = gc / total
	}
	return pm
}
