package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/server"
	"smrp/internal/topology"
)

// serve-mix: an in-process smrp-serve driven over loopback HTTP by an
// open-loop, pre-generated schedule. See README.md.
const (
	serveNodes       = 200
	serveSessions    = 16
	serveWarmMembers = 20
	serveMembers     = 30 // churn holds each session's membership near this
	// serveRate is the fixed offered rate, about a quarter of what two
	// connections sustain on a 2-CPU machine (~6,300 req/s).
	serveRate = 1500.0
	// serveFaultShare is the share of requests that fail or repair links.
	serveFaultShare  = 0.08
	serveOutstanding = 2 // failure events a session keeps before repairing the oldest
	// serveClosedRate is how many requests per second and connection the
	// closed-loop phase has generated for it, ~2.5 times what a connection
	// sustains on a 2-CPU machine; a phase that sends them all ends early.
	serveClosedRate = 8000.0

	// The max-rate ladder runs after the two halves of a traced run:
	// up to serveLadderSteps steps of serveLadderStep at
	// serveRate·serveLadderFactor^k, k = 1, 2, …; the last is past what two
	// connections sustain on a 2-CPU machine. A step passes when its join
	// p99 is at most serveJoinLimitMS and the requests due in its last
	// quarter start within serveBacklogMS of their due time at the 90th
	// percentile (the backlog is not growing).
	serveLadderStep   = time.Second
	serveLadderSteps  = 8
	serveLadderFactor = 1.25
	serveJoinLimitMS  = 10.0
	serveBacklogMS    = 5.0
)

// sreq is one scheduled request.
type sreq struct {
	at   time.Duration // due time from the start of its schedule
	sess int
	k    kind // kJoin, kLeave, kRestore (POST …/fail, recover=true), kRepair
	node graph.NodeID
	// links is the cut a fail or repair names.
	links []server.LinkWire
	body  []byte
	// deps are the earlier requests of the same schedule that must complete
	// before this one is sent (see linkDeps).
	deps []int32
}

// sview is the harness's view of one session, updated from every response.
type sview struct {
	onTree, parked map[graph.NodeID]bool
}

// replayOp is a completed request, kept per session for the core replay.
type replayOp struct {
	k     kind
	node  graph.NodeID
	fails []failure.Failure
	timed bool // completed during the traced half
}

// sgen is the schedule generator's state for one session. It sees only the
// requests it generated, never their responses.
type sgen struct {
	members memberSet
	events  [][]server.LinkWire
}

func (g sgen) clone() sgen {
	c := sgen{members: newMemberSet(), events: slices.Clone(g.events)}
	for _, m := range g.members.list {
		c.members.add(m)
	}
	return c
}

// apply moves the generator state past r, as generating r did.
func (g *sgen) apply(r *sreq) {
	switch r.k {
	case kJoin:
		g.members.add(r.node)
	case kLeave:
		g.members.remove(r.node)
	case kRestore:
		g.events = append(g.events, r.links)
	case kRepair:
		g.events = g.events[1:]
	}
}

type serveMix struct {
	g      *graph.Graph
	genS   float64
	rng    *topology.RNG
	reg    *server.Registry
	srv    *server.Server
	h      http.Handler
	hs     *http.Server
	served chan struct{}
	base   string

	ids     []string
	sources []graph.NodeID
	clients []*http.Client
	gen     []sgen

	tracer atomic.Pointer[tracer] // the middleware records while non-nil

	// mu guards view and replay; play's per-schedule completion flags use
	// it with cond.
	mu        sync.Mutex
	cond      *sync.Cond
	view      []sview
	replay    [][]replayOp
	history   bool // completed requests are appended to replay
	recording bool // replay ops are marked timed

	replaySessions []*core.Session
	mailboxMax     atomic.Int64
	batchMean      float64
}

func setupServeMix(seed uint64) (bench, error) {
	rng := topology.NewRNG(seed)
	g, genS, err := waxman(serveNodes, rng)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry(g, server.RegistryConfig{})
	srv := server.New(reg, server.Config{})
	b := &serveMix{g: g, genS: genS, rng: rng, reg: reg, srv: srv, h: srv.Handler(),
		served: make(chan struct{}), history: true}
	b.cond = sync.NewCond(&b.mu)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: http.HandlerFunc(b.serveHTTP)}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		b.clients = append(b.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}

	for _, src := range rng.Sample(g.NumNodes(), serveSessions) {
		code, body, err := b.do(b.clients[0], http.MethodPost, "/v1/sessions", []byte(fmt.Sprintf(`{"source":%d}`, src)), 0, 0)
		if err != nil || code != http.StatusCreated {
			b.close()
			return nil, fmt.Errorf("create session: %d %s %v", code, body, err)
		}
		var info server.SessionInfo
		if err := json.Unmarshal(body, &info); err != nil {
			b.close()
			return nil, err
		}
		b.ids = append(b.ids, info.ID)
		b.sources = append(b.sources, graph.NodeID(src))
		b.gen = append(b.gen, sgen{members: newMemberSet()})
		b.view = append(b.view, sview{onTree: map[graph.NodeID]bool{}, parked: map[graph.NodeID]bool{}})
		b.replay = append(b.replay, nil)
	}

	// Warm admission, one request at a time.
	var warm []sreq
	for s := range b.ids {
		for b.gen[s].members.len() < serveWarmMembers {
			if r, ok := b.joinReq(s); ok {
				warm = append(warm, r)
			}
		}
	}
	log := newOpLog()
	b.play(warm, 1, false, time.Now(), time.Time{}, nil, []*opLog{log})
	if log.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm admission: %v", log.failures)
	}
	return b, nil
}

// serveHTTP is the benchmark's middleware around Handler().ServeHTTP: while
// tracing, it records one server-layer span per request under the client's
// operation ID.
func (b *serveMix) serveHTTP(w http.ResponseWriter, r *http.Request) {
	t := b.tracer.Load()
	if t == nil {
		b.h.ServeHTTP(w, r)
		return
	}
	start := t.now()
	b.h.ServeHTTP(w, r)
	end := t.now()
	if op, k, ok := parseOpHeader(r.Header.Get("X-Bench-Op")); ok {
		t.record(span{op: op, depth: 1, layer: layerServer, kind: k, start: start, end: end})
	}
}

func parseOpHeader(h string) (uint64, kind, bool) {
	a, c, ok := strings.Cut(h, "/")
	if !ok {
		return 0, 0, false
	}
	op, err1 := strconv.ParseUint(a, 10, 64)
	k, err2 := strconv.Atoi(c)
	return op, kind(k), err1 == nil && err2 == nil && k >= 0 && k < int(numKinds)
}

func (b *serveMix) do(c *http.Client, method, path string, body []byte, op uint64, k kind) (int, []byte, error) {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if op != 0 {
		req.Header.Set("X-Bench-Op", fmt.Sprintf("%d/%d", op, k))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (b *serveMix) get(path string, v any) error {
	code, body, err := b.do(b.clients[0], http.MethodGet, path, nil, 0, 0)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// joinReq generates a join of a node the generator believes is not a member.
func (b *serveMix) joinReq(s int) (sreq, bool) {
	m := graph.NodeID(b.rng.Intn(b.g.NumNodes()))
	gs := &b.gen[s]
	if m == b.sources[s] || gs.members.has(m) {
		return sreq{}, false
	}
	gs.members.add(m)
	return sreq{sess: s, k: kJoin, node: m, body: []byte(fmt.Sprintf(`{"node":%d}`, m))}, true
}

// nextReq generates the next request of the mix.
func (b *serveMix) nextReq() sreq {
	for {
		s := b.rng.Intn(serveSessions)
		gs := &b.gen[s]
		r := b.rng.Float64()
		switch {
		case len(gs.events) > 0 && (len(gs.events) >= serveOutstanding || r < serveFaultShare/2):
			links := gs.events[0]
			gs.events = gs.events[1:]
			body, _ := json.Marshal(server.FailureSpec{Links: links})
			return sreq{sess: s, k: kRepair, links: links, body: body}
		case r < serveFaultShare:
			links := b.faultLinks(b.sources[s])
			gs.events = append(gs.events, links)
			yes := true
			body, _ := json.Marshal(server.FailRequest{FailureSpec: server.FailureSpec{Links: links}, Recover: &yes})
			return sreq{sess: s, k: kRestore, links: links, body: body}
		case b.rng.Float64() < 0.5+float64(serveMembers-gs.members.len())/float64(2*serveMembers):
			if r, ok := b.joinReq(s); ok {
				return r
			}
		default:
			if gs.members.len() == 0 {
				continue
			}
			m := gs.members.list[b.rng.Intn(gs.members.len())]
			gs.members.remove(m)
			return sreq{sess: s, k: kLeave, node: m, body: []byte(fmt.Sprintf(`{"node":%d}`, m))}
		}
	}
}

// faultLinks draws a correlated cut: up to three links of one node, always
// leaving the node one link, never the source's own node.
func (b *serveMix) faultLinks(src graph.NodeID) []server.LinkWire {
	for {
		v := graph.NodeID(b.rng.Intn(b.g.NumNodes()))
		arcs := b.g.Neighbors(v)
		if v == src || len(arcs) < 2 {
			continue
		}
		k := min(3, len(arcs)-1)
		out := make([]server.LinkWire, 0, k)
		for _, i := range b.rng.Sample(len(arcs), k) {
			out = append(out, server.LinkWire{U: v, V: arcs[i].To})
		}
		return out
	}
}

// schedule generates Poisson arrivals at rate for dur, or exactly n
// requests when n > 0.
func (b *serveMix) schedule(rate float64, dur time.Duration, n int) []sreq {
	var out []sreq
	t := 0.0
	for {
		t += -math.Log(1-b.rng.Float64()) / rate
		if (n > 0 && len(out) == n) || (n == 0 && t >= dur.Seconds()) {
			break
		}
		r := b.nextReq()
		r.at = time.Duration(t * float64(time.Second))
		out = append(out, r)
	}
	linkDeps(out)
	return out
}

// linkDeps orders each schedule so every status is predictable: a request
// for a (session, node) pair waits for the previous request for that pair,
// and a fail or repair waits for every earlier request of its session and
// is waited for by every later one. Requests are claimed in schedule order,
// so the earliest unfinished request never waits on an unclaimed one.
func linkDeps(sched []sreq) {
	lastPair := map[[2]int]int32{}
	lastFault := map[int]int32{}
	since := map[int][]int32{} // requests of the session since its last fault
	for i := range sched {
		r := &sched[i]
		s := r.sess
		if r.k == kRestore || r.k == kRepair {
			r.deps = since[s]
			if j, ok := lastFault[s]; ok {
				r.deps = append(r.deps, j)
			}
			since[s] = nil
			lastFault[s] = int32(i)
			continue
		}
		key := [2]int{s, int(r.node)}
		if j, ok := lastPair[key]; ok {
			r.deps = append(r.deps, j)
		}
		if j, ok := lastFault[s]; ok {
			r.deps = append(r.deps, j)
		}
		lastPair[key] = int32(i)
		since[s] = append(since[s], int32(i))
	}
}

// play sends sched on conns connections. Paced requests wait for their due
// time (t0 + at) on a pacer; unpaced ones go back to back. Latency runs
// from the send; a paced join also records its claim delay, order wait and
// latency from its due time. No request is claimed after until, unless it
// is zero. play returns how long after its due time each paced request was
// sent (ms), and how many requests it sent: always a prefix of sched.
func (b *serveMix) play(sched []sreq, conns int, paced bool, t0, until time.Time, tr *tracer, logs []*opLog) ([]float64, int) {
	lag := make([]float64, len(sched))
	finished := make([]bool, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tb := tr.worker()
			log := logs[c]
			client := b.clients[c]
			pc, err := newPacer()
			if err != nil {
				log.fail("pacer: %v", err)
				return
			}
			defer pc.close()
			for {
				// A connection claims the next request only once it is due,
				// so an idle connection never waits behind one that holds a
				// request it is not allowed to send yet.
				i := int(next.Load())
				if i >= len(sched) || (!until.IsZero() && time.Now().After(until)) {
					return
				}
				r := &sched[i]
				due := t0.Add(r.at)
				if paced {
					if d := time.Until(due); d > 0 {
						if err := pc.sleep(d); err != nil {
							log.fail("pacer: %v", err)
							return
						}
						continue
					}
				}
				if !next.CompareAndSwap(int64(i), int64(i+1)) {
					continue
				}
				picked := time.Now()
				b.mu.Lock()
				for _, j := range r.deps {
					for !finished[j] {
						b.cond.Wait()
					}
				}
				b.mu.Unlock()
				sent := time.Now()
				op, start := tb.begin()
				code, body, err := b.do(client, http.MethodPost, b.path(r), r.body, op, r.k)
				done := time.Now()
				tb.end(op, r.k, start)
				if paced {
					lag[i] = float64(sent.Sub(due)) / 1e6
					log.lat[kLate] = append(log.lat[kLate], float64(picked.Sub(due))/1e6)
					if r.k == kJoin {
						log.lat[kQueue] = append(log.lat[kQueue], float64(sent.Sub(picked))/1e6)
						log.lat[kDue] = append(log.lat[kDue], float64(done.Sub(due))/1e6)
					}
				}
				b.settle(r, code, body, err, done.Sub(sent), log)
				b.mu.Lock()
				finished[i] = true
				b.mu.Unlock()
				b.cond.Broadcast()
			}
		}(c)
	}
	wg.Wait()
	return lag, min(int(next.Load()), len(sched))
}

func (b *serveMix) path(r *sreq) string {
	op := map[kind]string{kJoin: "join", kLeave: "leave", kRestore: "fail", kRepair: "repair"}[r.k]
	return "/v1/sessions/" + b.ids[r.sess] + "/" + op
}

// settle checks a response against the outcome the view predicts and
// applies its effect to the view. It runs before r is marked done, so no
// conflicting request has moved the view since r was sent.
func (b *serveMix) settle(r *sreq, code int, body []byte, err error, lat time.Duration, log *opLog) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		log.fail("%s: %v", b.path(r), err)
		return
	}
	v := &b.view[r.sess]
	var ew server.ErrorWire
	if code >= 400 {
		_ = json.Unmarshal(body, &ew) // a malformed body fails the prediction below
	}
	rec := replayOp{k: r.k, node: r.node, timed: b.recording}
	switch r.k {
	case kJoin:
		switch {
		case v.onTree[r.node] && code == http.StatusConflict && ew.Code == "already_member":
			log.expect(kJoin, lat, "join_already_member")
			return
		case !v.onTree[r.node] && code == http.StatusOK:
			v.onTree[r.node] = true
			delete(v.parked, r.node)
			log.ok(kJoin, lat)
		case !v.onTree[r.node] && code == http.StatusConflict && ew.Code == "partitioned":
			v.parked[r.node] = true
			log.expect(kJoin, lat, "join_partitioned")
		default:
			log.fail("%s node %d: unpredicted %d %s", b.path(r), r.node, code, body)
			return
		}
	case kLeave:
		switch {
		case v.onTree[r.node] && code == http.StatusNoContent:
			delete(v.onTree, r.node)
			log.ok(kLeave, lat)
		case v.parked[r.node] && code == http.StatusNotFound && ew.Code == "not_member":
			log.expect(kLeave, lat, "leave_parked")
			return
		default:
			log.fail("%s node %d: unpredicted %d %s", b.path(r), r.node, code, body)
			return
		}
	case kRestore:
		var hw server.HealWire
		var fr server.FailRequest
		if code != http.StatusOK || json.Unmarshal(body, &hw) != nil || json.Unmarshal(r.body, &fr) != nil {
			log.fail("%s: unpredicted %d %s", b.path(r), code, body)
			return
		}
		for _, m := range hw.Unrecovered {
			delete(v.onTree, m)
			v.parked[m] = true
		}
		for _, m := range hw.Readmitted {
			delete(v.parked, m)
			v.onTree[m] = true
		}
		rec.fails = linkFailures(fr.Links)
		log.ok(kRestore, lat)
	case kRepair:
		var rw server.RepairWire
		var fs server.FailureSpec
		if code != http.StatusOK || json.Unmarshal(body, &rw) != nil || json.Unmarshal(r.body, &fs) != nil {
			log.fail("%s: unpredicted %d %s", b.path(r), code, body)
			return
		}
		for _, m := range rw.Readmitted {
			delete(v.parked, m)
			v.onTree[m] = true
		}
		if len(rw.StillParked) != len(v.parked) {
			log.fail("%s: server reports %d parked, harness view %d", b.path(r), len(rw.StillParked), len(v.parked))
			return
		}
		rec.fails = linkFailures(fs.Links)
		log.ok(kRepair, lat)
	}
	if b.history {
		b.replay[r.sess] = append(b.replay[r.sess], rec)
	}
}

func linkFailures(ls []server.LinkWire) []failure.Failure {
	fs := make([]failure.Failure, len(ls))
	for i, l := range ls {
		fs[i] = failure.LinkDown(l.U, l.V)
	}
	return fs
}

func (b *serveMix) run(p *phase) error {
	if p.maxOps > 0 {
		sched := b.schedule(serveRate, 0, p.maxOps)
		p.begin()
		log := p.newLog()
		b.play(sched, 1, false, p.start, time.Time{}, nil, []*opLog{log})
		p.end(log)
		return nil
	}
	b.mu.Lock()
	b.history = p.tr != nil || p.history
	b.mu.Unlock()
	conns := min(p.workers, len(b.clients))
	// Every schedule is generated before the clock starts.
	sched := b.schedule(serveRate, p.dur, 0)

	var stopSampler func()
	var hist0 [2]float64
	if p.tr != nil {
		hist0 = b.joinBatchHist()
		stopSampler = b.sampleMailboxes()
		b.mu.Lock()
		b.recording = true
		b.mu.Unlock()
		b.tracer.Store(p.tr)
	}
	p.begin()
	logs := make([]*opLog, conns)
	for i := range logs {
		logs[i] = p.newLog()
	}
	b.play(sched, conns, true, p.start, time.Time{}, p.tr, logs)
	p.end(logs...)
	if p.tr != nil {
		b.tracer.Store(nil)
		stopSampler()
		h := b.joinBatchHist()
		b.batchMean = (h[0] - hist0[0]) / math.Max(h[1]-hist0[1], 1)
		b.mu.Lock()
		b.recording = false
		b.mu.Unlock()
		rt := newTracer()
		if err := b.replayCore(rt); err != nil {
			return err
		}
		p.replay = rt
	}
	return nil
}

// saturate drives the server closed-loop for p.dur: every connection sends
// its next request as soon as its last one returns, so the phase's rate is
// what the server sustains. The schedule is generated before the clock
// starts, larger than the phase can send; the generator then rewinds to the
// end of what was sent, so later schedules stay predictable.
func (b *serveMix) saturate(p *phase) error {
	b.mu.Lock()
	b.history = false
	b.mu.Unlock()
	conns := min(p.workers, len(b.clients))
	saved := make([]sgen, len(b.gen))
	for s := range b.gen {
		saved[s] = b.gen[s].clone()
	}
	sched := b.schedule(serveRate, 0, int(serveClosedRate*float64(conns)*p.dur.Seconds()))
	b.gen = saved
	p.begin()
	logs := make([]*opLog, conns)
	for i := range logs {
		logs[i] = p.newLog()
	}
	_, sent := b.play(sched, conns, false, p.start, p.until, nil, logs)
	p.end(logs...)
	for i := range sched[:sent] {
		b.gen[sched[i].sess].apply(&sched[i])
	}
	return nil
}

// ladder offers serveRate·serveLadderFactor^k req/s for k = 1, 2, … in
// steps of serveLadderStep, as many as fit in budget (at most
// serveLadderSteps), and returns the achieved rate of the highest step that
// met the join-latency limit without a growing backlog, a note describing
// every step, and the steps' operation log. A failed step ends the ladder.
// It runs last, so the generator state of steps it does not send is never
// used.
func (b *serveMix) ladder(budget time.Duration, conns int) (maxRate float64, note string, log *opLog) {
	b.mu.Lock()
	b.history = false
	b.mu.Unlock()
	conns = min(conns, len(b.clients))
	var rates []float64
	var steps [][]sreq
	for k := 1; k <= serveLadderSteps && time.Duration(k)*serveLadderStep <= budget; k++ {
		rate := serveRate * math.Pow(serveLadderFactor, float64(k))
		rates = append(rates, rate)
		steps = append(steps, b.schedule(rate, serveLadderStep, 0))
	}
	var notes []string
	var all []*opLog
	for i, sched := range steps {
		logs := make([]*opLog, conns)
		for c := range logs {
			logs[c] = newOpLog()
		}
		t0 := time.Now()
		lag, _ := b.play(sched, conns, true, t0, time.Time{}, nil, logs)
		wall := time.Since(t0)
		all = append(all, logs...)
		l := mergeLogs(logs...)
		joinP99 := quantile(l.lat[kJoin], 0.99)
		var tail []float64
		for j, r := range sched {
			if r.at >= serveLadderStep*3/4 {
				tail = append(tail, lag[j])
			}
		}
		tailLag := quantile(tail, 0.9)
		pass := l.failed == 0 && joinP99 <= serveJoinLimitMS && tailLag <= serveBacklogMS
		notes = append(notes, fmt.Sprintf("%.0f:%s(p99=%.2fms n=%d lag=%.2fms)", rates[i],
			map[bool]string{true: "ok", false: "FAIL"}[pass], joinP99, len(l.lat[kJoin]), tailLag))
		if !pass {
			break
		}
		maxRate = float64(l.completed()) / wall.Seconds()
	}
	return maxRate, "ladder " + strings.Join(notes, " "), mergeLogs(all...)
}

// joinBatchHist reads smrp_actor_join_batch_size's sum and count.
func (b *serveMix) joinBatchHist() [2]float64 {
	var out [2]float64
	code, body, err := b.do(b.clients[0], http.MethodGet, "/metrics", nil, 0, 0)
	if err != nil || code != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		f, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "smrp_actor_join_batch_size_sum":
			out[0] = f
		case "smrp_actor_join_batch_size_count":
			out[1] = f
		}
	}
	return out
}

// sampleMailboxes tracks the deepest actor mailbox until the returned stop
// function is called; stop waits for the sampler to exit.
func (b *serveMix) sampleMailboxes() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	b.mailboxMax.Store(0)
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				for _, a := range b.reg.List() {
					if d := int64(a.MailboxDepth()); d > b.mailboxMax.Load() {
						b.mailboxMax.Store(d)
					}
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// replayCore replays every session's completed requests, in completion
// order, against fresh core sessions on the same topology, timing the ops
// that completed during the traced half. It attributes the core layer's
// share of serve-mix without spans inside the program.
func (b *serveMix) replayCore(rt *tracer) error {
	tb := rt.worker()
	b.replaySessions = nil
	for s, ops := range b.replay {
		sess, err := core.NewSession(b.g, b.sources[s], core.DefaultConfig())
		if err != nil {
			return err
		}
		b.replaySessions = append(b.replaySessions, sess)
		for _, o := range ops {
			var err error
			f := func() {
				switch o.k {
				case kJoin:
					_, err = sess.Join(o.node)
				case kLeave:
					err = sess.Leave(o.node)
				case kRestore:
					_, err = sess.Recover(o.fails...)
				case kRepair:
					_, err = sess.Repair(o.fails...)
				}
			}
			if o.timed {
				timeOp(tb, layerCore, o.k, sess.Stats, f)
			} else {
				f()
			}
			// Reordered concurrent requests can make a replayed join meet a
			// different mask than the server's did; outcomes are not checked.
			_ = err
		}
	}
	return nil
}

func (b *serveMix) state() (state, error) {
	var st state
	for _, id := range b.ids {
		var sw server.StatsWire
		if err := b.get("/v1/sessions/"+id+"/stats", &sw); err != nil {
			return st, err
		}
		a, err := b.reg.Get(id)
		if err != nil {
			return st, err
		}
		st.addSession(sw.Stats, a.StandingBytes(), false)
	}
	for _, s := range b.replaySessions {
		if s.Tree().SparseStorage() {
			st.sparse++
		}
	}
	st.spfHits, st.spfMisses = b.reg.Cache().Stats()
	st.spfDeltas = b.reg.Cache().DeltaRepairs()
	st.cacheEntries = b.reg.Cache().Len()
	st.graphBytes = b.g.MemoryFootprint()
	return st, nil
}

// check compares every session's final membership, fetched over HTTP, with
// the harness's view built from the responses.
func (b *serveMix) check() []string {
	var v []string
	for s, id := range b.ids {
		var snap struct {
			Members []core.MemberState `json:"members"`
			Parked  []graph.NodeID     `json:"parked"`
		}
		if err := b.get("/v1/sessions/"+id, &snap); err != nil {
			v = append(v, err.Error())
			continue
		}
		view := b.view[s]
		on := map[graph.NodeID]bool{}
		for _, m := range snap.Members {
			on[m.Node] = true
			if !view.onTree[m.Node] {
				v = append(v, fmt.Sprintf("%s: member %d on the server's tree, not in the harness view", id, m.Node))
			}
		}
		for m := range view.onTree {
			if !on[m] {
				v = append(v, fmt.Sprintf("%s: member %d in the harness view, not on the server's tree", id, m))
			}
		}
		parked := map[graph.NodeID]bool{}
		for _, m := range snap.Parked {
			parked[m] = true
			if on[m] {
				v = append(v, fmt.Sprintf("%s: member %d both on the tree and parked", id, m))
			}
			if !view.parked[m] {
				v = append(v, fmt.Sprintf("%s: member %d parked on the server, not in the harness view", id, m))
			}
		}
		if len(parked) != len(view.parked) {
			v = append(v, fmt.Sprintf("%s: %d parked on the server, %d in the harness view", id, len(parked), len(view.parked)))
		}
	}
	return v
}

func (b *serveMix) layerStats() map[string]float64 {
	return map[string]float64{
		"server.mailbox_depth_max": float64(b.mailboxMax.Load()),
		"server.join_batch_mean":   b.batchMean,
	}
}

func (b *serveMix) generateSeconds() float64 { return b.genS }

func (b *serveMix) close() {
	b.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = b.hs.Close() // shutdown timed out; force the listener and conns closed
	}
	<-b.served
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
}
