package main

import (
	"fmt"
	"time"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/hierarchy"
	"smrp/internal/topology"
)

// hier-churn: one N-level hierarchical session over a ~10⁵-node megascale
// topology of 100-node domains; churn and domain-confined branch cuts. See
// README.md.
const (
	hierNodes   = 100_000
	hierMembers = 400 // warm-admitted, one per random leaf domain; churn holds membership near it
)

type hierChurn struct {
	topo    *topology.NLevelTopology
	s       *hierarchy.NLevelSession
	src     graph.NodeID
	genS    float64
	leaves  []int
	members memberSet
	rng     *topology.RNG
	events  int
}

func setupHierChurn(seed uint64) (bench, error) {
	rng := topology.NewRNG(seed)
	t0 := time.Now()
	topo, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: hierNodes}, seed)
	if err != nil {
		return nil, err
	}
	b := &hierChurn{topo: topo, genS: time.Since(t0).Seconds(), leaves: topo.Leaves(), members: newMemberSet(), rng: rng}
	b.src = b.pickIn(b.leaves[rng.Intn(len(b.leaves))])
	if b.s, err = hierarchy.NewNLevel(topo, b.src, fleetConfig()); err != nil {
		return nil, err
	}
	for b.members.len() < hierMembers {
		m := b.pickIn(b.leaves[rng.Intn(len(b.leaves))])
		if m == b.src || b.members.has(m) {
			continue
		}
		if err := b.s.Join(m); err != nil {
			return nil, fmt.Errorf("warm join %d: %w", m, err)
		}
		b.members.add(m)
	}
	return b, nil
}

// pickIn draws a non-gateway node of domain d.
func (b *hierChurn) pickIn(d int) graph.NodeID {
	dom := &b.topo.Domains[d]
	for {
		if m := dom.Nodes[b.rng.Intn(len(dom.Nodes))]; m != dom.Gateway {
			return m
		}
	}
}

func (b *hierChurn) run(p *phase) error {
	// An NLevelSession has one owner: the loop is closed with one client.
	p.workers = 1
	return p.runWorkers(func(_ int, log *opLog) error {
		tb := p.tr.worker()
		for p.more() {
			if err := b.step(tb, log); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *hierChurn) step(tb *traceBuf, log *opLog) error {
	r := b.rng.Float64()
	switch {
	case r < 0.2:
		return b.branchCut(tb, log)
	case b.rng.Float64() < 0.5+float64(hierMembers-b.members.len())/float64(2*hierMembers):
		m := b.pickIn(b.leaves[b.rng.Intn(len(b.leaves))])
		if b.members.has(m) || m == b.src {
			return nil
		}
		var err error
		d := timeOp(tb, layerHierarchy, kJoin, nil, func() { err = b.s.Join(m) })
		if err != nil {
			log.fail("join %d: %v", m, err)
			return nil
		}
		b.members.add(m)
		log.ok(kJoin, d)
	default:
		if b.members.len() == 0 {
			return nil
		}
		m := b.members.list[b.rng.Intn(b.members.len())]
		var err error
		d := timeOp(tb, layerHierarchy, kLeave, nil, func() { err = b.s.Leave(m) })
		if err != nil {
			log.fail("leave %d: %v", m, err)
			return nil
		}
		b.members.remove(m)
		log.ok(kLeave, d)
	}
	return nil
}

// branchCut cuts the uplink of a random member's top ancestor inside the
// member's domain session, recovers through the hierarchy (which confines the
// work to that domain), and repairs the link on the domain session.
func (b *hierChurn) branchCut(tb *traceBuf, log *opLog) error {
	if b.members.len() == 0 {
		return nil
	}
	m := b.members.list[b.rng.Intn(b.members.len())]
	di := b.topo.DomainOf(m)
	ds, nm, err := b.s.DomainSession(di)
	if err != nil {
		return err
	}
	sub, ok := nm.ToSub(m)
	if !ok {
		return fmt.Errorf("member %d not in domain %d", m, di)
	}
	ta := ds.Tree().TopAncestor(sub)
	if ta == graph.Invalid {
		return nil
	}
	root := ds.Tree().Source()
	a, _ := nm.ToFull(ta)
	c, _ := nm.ToFull(root)
	op, start := tb.begin()
	t0 := time.Now()
	tb.call(op, layerHierarchy, kRestore, ds.Stats, func() { _, err = b.s.Recover(failure.LinkDown(a, c)) })
	d := time.Since(t0)
	if err != nil {
		log.fail("recover (%d-%d): %v", a, c, err)
	} else {
		log.ok(kRestore, d)
		b.events++
	}
	t0 = time.Now()
	tb.call(op, layerCore, kRepair, ds.Stats, func() { _, err = ds.Repair(failure.LinkDown(ta, root)) })
	d = time.Since(t0)
	tb.end(op, kRestore, start)
	if err != nil {
		log.fail("repair (%d-%d): %v", a, c, err)
		return nil
	}
	log.ok(kRepair, d)
	return nil
}

func (b *hierChurn) state() (state, error) {
	var st state
	for i := 0; i < b.s.NumDomains(); i++ {
		ds, _, err := b.s.DomainSession(i)
		if err != nil {
			return st, err
		}
		st.addSession(ds.Stats(), ds.MemoryFootprint(), ds.Tree().SparseStorage())
		if c := ds.Graph().SPFCacheOf(); c != nil {
			h, m := c.Stats()
			st.spfHits += h
			st.spfMisses += m
			st.spfDeltas += c.DeltaRepairs()
			st.cacheEntries += c.Len()
		}
	}
	st.graphBytes = b.topo.Graph.MemoryFootprint()
	return st, nil
}

func (b *hierChurn) check() []string {
	var v []string
	if err := b.s.Validate(); err != nil {
		v = append(v, err.Error())
	}
	for i := 0; i < b.s.NumDomains(); i++ {
		ds, _, _ := b.s.DomainSession(i)
		v = append(v, checkTree(fmt.Sprintf("domain %d", i), ds)...)
	}
	got := b.s.Members()
	if len(got) != b.members.len() {
		v = append(v, fmt.Sprintf("session has %d members, harness admitted %d", len(got), b.members.len()))
	}
	for _, m := range got {
		if !b.members.has(m) {
			v = append(v, fmt.Sprintf("member %d was never admitted", m))
		}
	}
	for _, m := range b.members.list {
		ds, nm, _ := b.s.DomainSession(b.topo.DomainOf(m))
		sub, _ := nm.ToSub(m)
		if on, parked := ds.Tree().IsMember(sub), ds.IsParked(sub); on == parked {
			v = append(v, fmt.Sprintf("member %d: on tree %v, parked %v", m, on, parked))
		}
	}
	return v
}

func (b *hierChurn) layerStats() map[string]float64 {
	enum, heal := b.s.SettledWork()
	return map[string]float64{
		"hierarchy.settled_total":     float64(enum + heal),
		"hierarchy.settled_per_event": float64(heal) / float64(max(b.events, 1)),
		"hierarchy.subgraph_bytes":    float64(b.s.SubgraphBytes()),
		"hierarchy.domains":           float64(b.s.NumDomains()),
	}
}

func (b *hierChurn) generateSeconds() float64 { return b.genS }
func (b *hierChurn) close()                   {}
