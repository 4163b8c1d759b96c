package main

import (
	"errors"
	"fmt"
	"time"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// restore-storm: correlated failures against many small sessions that share
// one SPF cache, with churn under the accumulated mask. See README.md.
const (
	stormNodes       = 300
	stormSessions    = 16
	stormMembers     = 30 // pre-admitted per session; churn holds membership near it
	stormOutstanding = 3  // failure events a session keeps before repairing the oldest
)

type restoreStorm struct {
	g     *graph.Graph
	cache *graph.SPFCache
	genS  float64
	sess  []*stormSession
}

// stormSession is one session plus the harness's bookkeeping of it.
type stormSession struct {
	s       *core.Session
	members memberSet // admitted and not left: on the tree or parked
	down    map[graph.NodeID]int
	events  [][]failure.Failure // outstanding failure events, oldest first
	rng     *topology.RNG
}

// waxman builds the paper's flat Waxman topology (α=0.2, β=0.15).
func waxman(n int, rng *topology.RNG) (*graph.Graph, float64, error) {
	t0 := time.Now()
	g, err := topology.Waxman(topology.WaxmanConfig{N: n, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true}, rng)
	return g, time.Since(t0).Seconds(), err
}

func setupRestoreStorm(seed uint64) (bench, error) {
	rng := topology.NewRNG(seed)
	g, genS, err := waxman(stormNodes, rng)
	if err != nil {
		return nil, err
	}
	b := &restoreStorm{g: g, cache: g.EnableSPFCache(), genS: genS}
	for i, src := range rng.Sample(g.NumNodes(), stormSessions) {
		s, err := core.NewSession(g, graph.NodeID(src), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		ss := &stormSession{s: s, members: newMemberSet(), down: map[graph.NodeID]int{}, rng: rng.Split()}
		for ss.members.len() < stormMembers {
			m := graph.NodeID(ss.rng.Intn(g.NumNodes()))
			if m == s.Tree().Source() || ss.members.has(m) {
				continue
			}
			if _, err := s.Join(m); err != nil {
				return nil, fmt.Errorf("session %d warm join %d: %w", i, m, err)
			}
			ss.members.add(m)
		}
		b.sess = append(b.sess, ss)
	}
	return b, nil
}

func (b *restoreStorm) run(p *phase) error {
	p.workers = min(p.workers, len(b.sess)) // every worker owns a session
	return p.runWorkers(func(w int, log *opLog) error {
		tb := p.tr.worker()
		var mine []*stormSession
		for i := w; i < len(b.sess); i += p.workers {
			mine = append(mine, b.sess[i])
		}
		for i := 0; p.more(); i++ {
			b.step(mine[i%len(mine)], tb, log)
		}
		return nil
	})
}

// step issues one operation against ss.
func (b *restoreStorm) step(ss *stormSession, tb *traceBuf, log *opLog) {
	s := ss.s
	r := ss.rng.Float64()
	switch {
	case len(ss.events) > 0 && (len(ss.events) >= stormOutstanding || r < 0.15):
		fs := ss.events[0]
		ss.events = ss.events[1:]
		var err error
		d := timeOp(tb, layerCore, kRepair, s.Stats, func() { _, err = s.Repair(fs...) })
		for _, f := range fs {
			if f.Kind == failure.NodeFailure {
				ss.down[f.Node]--
			}
		}
		if err != nil {
			log.fail("repair %v: %v", fs, err)
			return
		}
		log.ok(kRepair, d)
	case r < 0.30:
		fs := stormEvent(s, ss.rng)
		var err error
		d := timeOp(tb, layerCore, kRestore, s.Stats, func() { _, err = s.Recover(fs...) })
		ss.events = append(ss.events, fs)
		for _, f := range fs {
			if f.Kind == failure.NodeFailure {
				ss.down[f.Node]++
			}
		}
		if err != nil {
			log.fail("recover %v: %v", fs, err)
			return
		}
		log.ok(kRestore, d)
	case ss.rng.Float64() < 0.5+float64(stormMembers-ss.members.len())/float64(2*stormMembers):
		m := graph.NodeID(ss.rng.Intn(b.g.NumNodes()))
		if m == s.Tree().Source() || ss.members.has(m) || ss.down[m] > 0 {
			return // not a joinable node; draw again next step
		}
		var err error
		d := timeOp(tb, layerCore, kJoin, s.Stats, func() { _, err = s.Join(m) })
		switch {
		case err == nil:
			ss.members.add(m)
			log.ok(kJoin, d)
		case errors.Is(err, core.ErrPartitioned):
			ss.members.add(m)
			log.expect(kJoin, d, "join_partitioned")
		default:
			log.fail("join %d: %v", m, err)
		}
	default:
		m, ok := ss.members.pick(ss.rng, s.Tree().IsMember)
		if !ok {
			return
		}
		var err error
		d := timeOp(tb, layerCore, kLeave, s.Stats, func() { err = s.Leave(m) })
		if err != nil {
			log.fail("leave %d: %v", m, err)
			return
		}
		ss.members.remove(m)
		log.ok(kLeave, d)
	}
}

// stormEvent draws one correlated failure event aimed at the session's tree,
// so that it cuts members off and recovery has work to do: a shared-risk
// link group (every link of one tree node), a crash of a tree node, or a
// cut of two or three tree links. The source is always spared.
func stormEvent(s *core.Session, rng *topology.RNG) []failure.Failure {
	tr := s.Tree()
	var nodes []graph.NodeID
	for _, n := range tr.Nodes() {
		if n != tr.Source() {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		// Every member is parked: cut a link at the source instead.
		arcs := s.Graph().Neighbors(tr.Source())
		return []failure.Failure{failure.LinkDown(tr.Source(), arcs[rng.Intn(len(arcs))].To)}
	}
	pick := func() graph.NodeID { return nodes[rng.Intn(len(nodes))] }
	switch r := rng.Float64(); {
	case r < 0.4:
		return failure.SRLG(s.Graph(), pick())
	case r < 0.7:
		return []failure.Failure{failure.NodeDown(pick())}
	default:
		k := 2 + rng.Intn(2)
		fs := make([]failure.Failure, 0, k)
		for len(fs) < k {
			n := pick()
			p, _ := tr.Parent(n)
			fs = append(fs, failure.LinkDown(n, p))
		}
		return fs
	}
}

// timeOp runs f as one traced operation (root span plus one call span in
// layer l) and returns its wall time.
func timeOp(tb *traceBuf, l layer, k kind, stats func() core.Stats, f func()) time.Duration {
	op, start := tb.begin()
	t0 := time.Now()
	tb.call(op, l, k, stats, f)
	d := time.Since(t0)
	tb.end(op, k, start)
	return d
}

func (b *restoreStorm) state() (state, error) {
	var st state
	for _, ss := range b.sess {
		st.addSession(ss.s.Stats(), ss.s.MemoryFootprint(), ss.s.Tree().SparseStorage())
	}
	st.spfHits, st.spfMisses = b.cache.Stats()
	st.spfDeltas = b.cache.DeltaRepairs()
	st.cacheEntries = b.cache.Len()
	st.graphBytes = b.g.MemoryFootprint()
	return st, nil
}

func (b *restoreStorm) check() []string {
	var v []string
	for i, ss := range b.sess {
		v = append(v, checkSession(fmt.Sprintf("session %d", i), ss.s, ss.members.set)...)
	}
	return v
}

func (b *restoreStorm) layerStats() map[string]float64 { return nil }
func (b *restoreStorm) generateSeconds() float64       { return b.genS }
func (b *restoreStorm) close()                         {}

// memberSet is a set with uniform random picks.
type memberSet struct {
	list []graph.NodeID
	set  map[graph.NodeID]bool
	pos  map[graph.NodeID]int
}

func newMemberSet() memberSet {
	return memberSet{set: map[graph.NodeID]bool{}, pos: map[graph.NodeID]int{}}
}

func (m *memberSet) len() int                { return len(m.list) }
func (m *memberSet) has(n graph.NodeID) bool { return m.set[n] }

func (m *memberSet) add(n graph.NodeID) {
	if m.set[n] {
		return
	}
	m.set[n] = true
	m.pos[n] = len(m.list)
	m.list = append(m.list, n)
}

func (m *memberSet) remove(n graph.NodeID) {
	i, ok := m.pos[n]
	if !ok {
		return
	}
	last := m.list[len(m.list)-1]
	m.list[i] = last
	m.pos[last] = i
	m.list = m.list[:len(m.list)-1]
	delete(m.pos, n)
	delete(m.set, n)
}

// pick draws a random member satisfying ok, giving up after a few draws.
func (m *memberSet) pick(rng *topology.RNG, ok func(graph.NodeID) bool) (graph.NodeID, bool) {
	for try := 0; try < 8 && len(m.list) > 0; try++ {
		if n := m.list[rng.Intn(len(m.list))]; ok(n) {
			return n, true
		}
	}
	return graph.Invalid, false
}
