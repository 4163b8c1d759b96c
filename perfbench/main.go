// Command smrpbench is the repository benchmark. It drives the public API of
// each layer (the HTTP control plane, core sessions, N-level hierarchical
// sessions, the topology generators) from outside the program, checks the
// outputs, and prints one JSON result line.
//
//	smrpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends the first half of the run untraced and the second half traced, and
// reports the per-layer metrics, the per-layer span table (with self time)
// and the tracing overhead between the two halves. serve-mix gives part of
// each run to what follows its measured time: a closed-loop phase for
// ops_per_s with --trace 0, the max-rate ladder with --trace 1.
//
//	smrpbench --workload <name> --seed <n> --determinism
//
// replays a fixed number of operations on one worker three times (seed,
// seed, seed+1) and checks that the deterministic work counters repeat for
// the same seed and change with the seed.
//
// README.md in this directory explains why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"smrp/internal/graph"
)

// A run builds its system under test at least minSetups times, and more, up
// to maxSetups, while the builds so far took under setupBudget in total;
// setup_s is the median, and the last instance is the one measured. Cheap
// set-ups repeat more, so their median is as steady as that of costly ones.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// p99MinSamples is the sample count below which a p99 is not reported: a p99
// needs at least ten samples beyond it.
const p99MinSamples = 1000

// workload is one benchmark input shape.
type workload struct {
	name string
	// defaultOps is the fixed operation count of --determinism mode.
	defaultOps int
	setup      func(seed uint64) (bench, error)
}

var workloads = []workload{
	{name: "serve-mix", defaultOps: 1500, setup: setupServeMix},
	{name: "fleet-admit", defaultOps: 120, setup: setupFleetAdmit},
	{name: "restore-storm", defaultOps: 3000, setup: setupRestoreStorm},
	{name: "hier-churn", defaultOps: 3000, setup: setupHierChurn},
}

// Shares of a run that serve-mix spends after its measured time: an
// untraced run on a closed-loop phase, which gives its ops_per_s, and a
// traced run on the max-rate ladder. Load after the measured time moves
// neither its latencies nor its live heap; its operations still count as
// attempted and failed.
const (
	closedShare = 0.4
	ladderShare = 0.4
)

// openLoop is a bench whose measured phase runs at a fixed offered rate
// (serve-mix). Its ops_per_s comes from the closed-loop phase saturate
// runs, and ladder finds its max_rate_ops_s.
type openLoop interface {
	saturate(p *phase) error
	ladder(budget time.Duration, conns int) (maxRate float64, note string, log *opLog)
}

// bench is one built system under test.
type bench interface {
	// run drives operations until the phase ends, recording into p.
	run(p *phase) error
	// state reads the deterministic work counters and standing memory.
	state() (state, error)
	// check verifies the outputs; each string is one failed check.
	check() []string
	// layerStats reports workload-specific per-layer numbers for the trace
	// table (serve-mix's mailbox and join-batch gauges); may be nil.
	layerStats() map[string]float64
	// generateSeconds is the topology generation time of the last setup.
	generateSeconds() float64
	close()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("smrpbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed (the only workload input)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceOn := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	determinism := fs.Bool("determinism", false, "check counter determinism on a fixed operation count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "smrpbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(out, "machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s; serve-mix traffic crosses loopback (127.0.0.1) only\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if *determinism {
		if err := checkDeterminism(out, w, *seed, w.defaultOps); err != nil {
			fmt.Fprintf(os.Stderr, "smrpbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := measure(out, w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrpbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrpbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildTimed sets the workload up repeatedly (see minSetups), timing each
// build, and keeps the last instance. Earlier instances are closed and
// collected before the next build so their memory does not count against
// the measured one.
func buildTimed(w *workload, seed uint64) (bench, []float64, error) {
	var b bench
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (len(times) < maxSetups && total < setupBudget) {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := w.setup(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		b = nb
	}
	return b, times, nil
}

// measure runs one timed (and optionally traced) measurement.
func measure(out io.Writer, w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	b, setups, err := buildTimed(w, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	runtime.GC()

	res := &result{}
	report := func(name string, v float64, unit, note string) {
		fmt.Fprintf(out, "  %-30s %14.4f %-6s %s\n", name, v, unit, note)
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, dur.Seconds(), traced)

	before, err := b.state()
	if err != nil {
		return nil, err
	}
	spf0 := graph.SPFCounters()
	proc := startProc()

	var plain, tracedPh *phase
	var tr *tracer
	ol, isOpen := b.(openLoop)
	if !traced {
		pd := dur
		if isOpen {
			pd = time.Duration(float64(dur) * (1 - closedShare))
		}
		plain = newPhase(pd, 0, workers, nil)
		if err := b.run(plain); err != nil {
			return nil, err
		}
	} else {
		half := dur / 2
		if isOpen {
			half = time.Duration(float64(dur) * (1 - ladderShare) / 2)
		}
		plain = newPhase(half, 0, workers, nil)
		plain.history = true
		if err := b.run(plain); err != nil {
			return nil, err
		}
		tr = newTracer()
		tracedPh = newPhase(half, 0, workers, tr)
		if err := b.run(tracedPh); err != nil {
			return nil, err
		}
	}
	// The live-heap gauge moves only when a GC cycle ends; one more cycle
	// makes the last reading the heap as the run left it.
	runtime.GC()
	pm := proc.stop()
	spf := graph.SPFCounters().Sub(spf0)
	after, err := b.state()
	if err != nil {
		return nil, err
	}

	rate := plain.windowedRate()
	rateNote := fmt.Sprintf("trimmed mean over %d windows; whole phase %.4f",
		phaseWindows, float64(plain.log.completed())/plain.wall.Seconds())
	if isOpen {
		rateNote = "offered rate (open loop); " + rateNote
	}
	var trailing []*opLog // operations after the measured time
	if isOpen && !traced {
		runtime.GC()
		closed := newPhase(dur-plain.dur, 0, workers, nil)
		if err := ol.saturate(closed); err != nil {
			return nil, err
		}
		trailing = append(trailing, closed.log)
		rate = closed.windowedRate()
		rateNote = fmt.Sprintf("closed loop for %.1f s after the measured time, trimmed mean over %d windows; whole phase %.4f",
			closed.wall.Seconds(), phaseWindows, float64(closed.log.completed())/closed.wall.Seconds())
	}
	var maxRate float64
	var ladderNote string
	if isOpen && traced {
		var ladderLog *opLog
		maxRate, ladderNote, ladderLog = ol.ladder(dur-plain.dur-tracedPh.dur, workers)
		trailing = append(trailing, ladderLog)
	}

	logs := []*opLog{plain.log}
	if tracedPh != nil {
		logs = append(logs, tracedPh.log)
	}
	all := mergeLogs(logs...)
	if all.attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	checks := b.check()
	res.Attempted = all.attempted
	res.Failed = all.failed + len(checks)
	for _, l := range trailing {
		res.Attempted += l.attempted
		res.Failed += l.failed
		all.failures = append(all.failures, l.failures...)
		for o, n := range l.expected {
			all.expected[o] += n
		}
	}
	res.Correct = res.Failed == 0
	for _, c := range checks {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", c)
	}
	for _, f := range all.failures {
		fmt.Fprintf(out, "OP FAILED: %s\n", f)
	}

	completed := all.completed()
	fmt.Fprintf(out, "end-to-end (workers or connections=%d, ops completed=%d attempted=%d failed=%d checks=%d):\n",
		plain.workers, completed, res.Attempted, res.Failed-len(checks), len(checks))
	e2e := map[string]metric{
		"setup_s":                    {median(setups), "s"},
		"join_p50_ms":                {plain.windowedQuantile(kJoin, 0.5), "ms"},
		"restore_p50_ms":             {plain.windowedQuantile(kRestore, 0.5), "ms"},
		"ops_per_s":                  {rate, "ops/s"},
		"cpu_us_per_op":              {plain.cpuPerOp(), "us"},
		"standing_bytes_per_session": {float64(after.standingTotal) / float64(max(after.sessions, 1)), "B"},
		"live_heap_mb":               {float64(pm.maxLiveHeap) / (1 << 20), "MiB"},
	}
	for _, k := range []string{"setup_s", "join_p50_ms", "restore_p50_ms", "ops_per_s", "cpu_us_per_op",
		"standing_bytes_per_session", "live_heap_mb"} {
		m := e2e[k]
		note := ""
		switch k {
		case "setup_s":
			note = fmt.Sprintf("median of %v", fmtList(setups))
		case "join_p50_ms":
			note = fmt.Sprintf("trimmed mean over %d windows; whole phase %.4f, n=%d",
				phaseWindows, quantile(plain.log.lat[kJoin], 0.5), len(plain.log.lat[kJoin]))
		case "restore_p50_ms":
			note = fmt.Sprintf("trimmed mean over %d windows; whole phase %.4f, n=%d",
				phaseWindows, quantile(plain.log.lat[kRestore], 0.5), len(plain.log.lat[kRestore]))
		case "ops_per_s":
			note = rateNote
		case "cpu_us_per_op":
			note = "measured time"
		}
		report(k, m.Value, m.Unit, note)
	}
	for _, p := range []struct {
		name string
		k    kind
	}{{"join_p99_ms", kJoin}, {"restore_p99_ms", kRestore}} {
		s := plain.log.lat[p.k]
		if len(s) >= p99MinSamples {
			report(p.name, quantile(s, 0.99), "ms", fmt.Sprintf("n=%d", len(s)))
		} else {
			fmt.Fprintf(out, "  %-30s %14s %-6s n=%d < %d: not reported\n", p.name, "-", "ms", len(s), p99MinSamples)
		}
	}
	if maxRate > 0 {
		report("max_rate_ops_s", maxRate, "req/s", ladderNote)
	} else if ladderNote != "" {
		fmt.Fprintf(out, "  %-30s %14s %-6s %s\n", "max_rate_ops_s", "-", "req/s", ladderNote)
	}
	report("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio",
		fmt.Sprintf("expected outcomes (not failures): %v", all.expected))
	if len(plain.log.lat[kLate]) > 0 {
		late := plain.log.lat[kLate]
		report("generator_late_p99_ms", quantile(late, 0.99), "ms",
			fmt.Sprintf("due until a connection claimed the request: p50 %.3f ms, max %.3f ms, n=%d",
				quantile(late, 0.5), slices.Max(late), len(late)))
		report("join_from_due_p50_ms", quantile(plain.log.lat[kDue], 0.5), "ms",
			fmt.Sprintf("claim delay + order wait (p50 %.3f ms) + round trip (join_p50_ms); p99 %.3f ms",
				quantile(plain.log.lat[kQueue], 0.5), quantile(plain.log.lat[kDue], 0.99)))
	}
	d := after.sub(before)
	fmt.Fprintf(out, "counters (measured phase): %s spf=%+v\n", d.String(), spf)

	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	// Per-layer metrics: counters over both halves, spans from the traced one.
	allocTr := tr
	if tracedPh.replay != nil {
		allocTr = tracedPh.replay
	}
	ops := float64(max(completed, 1))
	joins := float64(max(d.core.Joins, 1))
	kops := ops / 1000
	layer := map[string]metric{
		"process.gc_cpu_frac":           {pm.gcFrac, "ratio"},
		"process.busy_frac":             {pm.busyFrac, "ratio"},
		"graph.spf_hit_ratio":           {ratio(spf.CacheHits, spf.CacheHits+spf.CacheMisses), "ratio"},
		"graph.spf_delta_share":         {ratio(spf.DeltaRuns, spf.CacheMisses), "ratio"},
		"graph.spf_settled_per_op":      {float64(spf.NodesSettled) / ops, "count"},
		"graph.spf_cache_entries":       {float64(after.cacheEntries), "count"},
		"core.enum_settled_per_join":    {float64(d.core.EnumSettled) / joins, "count"},
		"core.candidates_per_join":      {float64(d.core.CandidatesSeen) / joins, "count"},
		"core.heal_settled_per_restore": {float64(d.core.HealSettled) / float64(max(all.count(kRestore), 1)), "count"},
		"core.parks_per_kop":            {float64(d.core.Parks) / kops, "count"},
		"core.readmissions_per_kop":     {float64(d.core.Readmissions) / kops, "count"},
		"core.reshapes_per_kop":         {float64(d.core.Reshapes) / kops, "count"},
		"core.shr_updates_per_join":     {float64(d.core.SHRUpdates) / joins, "count"},
		"core.allocs_per_join":          {allocTr.perJoin(func(a allocSample) float64 { return float64(a.objs) }), "count"},
		"core.alloc_bytes_per_join":     {allocTr.perJoin(func(a allocSample) float64 { return float64(a.bytes) }), "B"},
		"multicast.standing_bytes_max":  {float64(after.standingMax), "B"},
		"topology.generate_s":           {b.generateSeconds(), "s"},
		"topology.graph_bytes":          {float64(after.graphBytes), "B"},
		"trace.harness_self_frac":       {tr.selfShare(layerBench), "ratio"},
		"trace.ops_ratio":               {tracedPh.windowedRate() / plain.windowedRate(), "ratio"},
		"trace.join_p50_ratio":          {tracedPh.windowedQuantile(kJoin, 0.5) / plain.windowedQuantile(kJoin, 0.5), "ratio"},
	}
	fmt.Fprintln(out, "per-layer (traced half; counters over the whole run):")
	for _, k := range sortedKeys(layer) {
		report(k, layer[k].Value, layer[k].Unit, "")
	}
	extra := map[string]float64{
		"multicast.sparse_share": float64(after.sparse) / float64(max(after.sessions, 1)),
		"graph.spf_full_runs":    float64(spf.FullRuns),
	}
	maps.Copy(extra, b.layerStats())
	for _, k := range sortedKeys(extra) {
		fmt.Fprintf(out, "  %-30s %14.4f\n", k, extra[k])
	}
	tr.writeTable(out)
	if tracedPh.replay != nil {
		fmt.Fprintln(out, "core layer, measured by replaying the traced half's requests directly against core sessions:")
		tracedPh.replay.writeTable(out)
	}
	if err := tr.writeFiles(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", w.name, seed))); err != nil {
		fmt.Fprintf(out, "trace files not written: %v\n", err)
	}
	res.Metrics = layer
	return res, nil
}

// checkDeterminism runs a fixed operation count on one worker for seed,
// seed again and seed+1, and compares the deterministic counters.
func checkDeterminism(out io.Writer, w *workload, seed uint64, ops int) error {
	var states []state
	for _, s := range []uint64{seed, seed, seed + 1} {
		b, err := w.setup(s)
		if err != nil {
			return fmt.Errorf("setup seed %d: %w", s, err)
		}
		spf0 := graph.SPFCounters()
		p := newPhase(0, ops, 1, nil)
		if err := b.run(p); err != nil {
			b.close()
			return fmt.Errorf("run seed %d: %w", s, err)
		}
		st, err := b.state()
		if err != nil {
			b.close()
			return err
		}
		st.spf = graph.SPFCounters().Sub(spf0)
		checks := b.check()
		b.close()
		if len(checks) > 0 || p.log.failed > 0 {
			return fmt.Errorf("seed %d: %d output checks and %d operations failed: %v %v",
				s, len(checks), p.log.failed, checks, p.log.failures)
		}
		fmt.Fprintf(out, "seed %d after %d ops: %s spf=%+v\n", s, p.log.attempted, st.String(), st.spf)
		states = append(states, st)
	}
	if states[0] != states[1] {
		return fmt.Errorf("%s: same seed gave different counters", w.name)
	}
	if states[0] == states[2] {
		return fmt.Errorf("%s: a different seed gave identical counters", w.name)
	}
	fmt.Fprintf(out, "determinism ok: %s seed %d repeats, seed %d differs\n", w.name, seed, seed+1)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
