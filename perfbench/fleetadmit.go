package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/runner"
	"smrp/internal/topology"
)

// fleet-admit: Zipf-sized groups admitted one Join at a time on one flat
// plane just above the sparse-storage cutover, each followed by branch-cut
// recoveries. See README.md.
const (
	// fleetNodes puts the plane above core.SparseNodeThreshold (32,768), so
	// core.StorageAuto picks sparse tree storage.
	fleetNodes = 40_000
	// fleetMaxMembers/fleetMinMembers shape the Zipf group sizes
	// max/(rank+1), floored; ranks cycle through fleetRanks.
	fleetMaxMembers = 64
	fleetMinMembers = 2
	fleetRanks      = 16
	// fleetWarmMembers is the one group admitted during setup.
	fleetWarmMembers = 4
	// fleetCutRounds is how many times each member's current uplink is cut,
	// recovered and repaired after it joins. A round costs ~1% of a join, so
	// the rounds buy restore samples without shifting the workload away from
	// admission.
	fleetCutRounds = 3
)

type fleetAdmit struct {
	g     *graph.Graph
	cache *graph.SPFCache
	genS  float64
	seed  uint64

	nextRank atomic.Int64
	mu       sync.Mutex
	groups   []*fleetGroup
}

type fleetGroup struct {
	s       *core.Session
	members map[graph.NodeID]bool
}

// fleetConfig is the megascale study's session config: reshaping off, so
// admission and recovery are measured without Condition-I cascades.
func fleetConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ReshapeDelta = 0
	cfg.PeriodicReshape = false
	return cfg
}

func setupFleetAdmit(seed uint64) (bench, error) {
	t0 := time.Now()
	g, _, err := topology.FlatMegascale(fleetNodes, seed)
	if err != nil {
		return nil, err
	}
	b := &fleetAdmit{g: g, cache: g.EnableSPFCache(), genS: time.Since(t0).Seconds(), seed: seed}
	grp, err := b.newGroup(runner.DeriveSeed(seed, -1))
	if err != nil {
		return nil, err
	}
	for _, m := range b.draw(grp, topology.NewRNG(runner.DeriveSeed(seed, -2)), fleetWarmMembers) {
		if _, err := grp.s.Join(m); err != nil {
			return nil, fmt.Errorf("warm join %d: %w", m, err)
		}
		grp.members[m] = true
	}
	return b, nil
}

// newGroup creates a session at a source drawn from groupSeed.
func (b *fleetAdmit) newGroup(groupSeed uint64) (*fleetGroup, error) {
	src := graph.NodeID(topology.NewRNG(groupSeed).Intn(b.g.NumNodes()))
	s, err := core.NewSession(b.g, src, fleetConfig())
	if err != nil {
		return nil, err
	}
	grp := &fleetGroup{s: s, members: map[graph.NodeID]bool{}}
	b.mu.Lock()
	b.groups = append(b.groups, grp)
	b.mu.Unlock()
	return grp, nil
}

// draw picks k distinct non-source, non-member nodes.
func (b *fleetAdmit) draw(grp *fleetGroup, rng *topology.RNG, k int) []graph.NodeID {
	seen := map[graph.NodeID]bool{grp.s.Tree().Source(): true}
	out := make([]graph.NodeID, 0, k)
	for len(out) < k {
		m := graph.NodeID(rng.Intn(b.g.NumNodes()))
		if !seen[m] && !grp.members[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

func (b *fleetAdmit) run(p *phase) error {
	return p.runWorkers(func(_ int, log *opLog) error {
		tb := p.tr.worker()
		for p.more() {
			rank := b.nextRank.Add(1) - 1
			if err := b.playGroup(p, rank, tb, log); err != nil {
				return err
			}
		}
		return nil
	})
}

// playGroup admits one group member by member. After each join it cuts
// that member's current uplink fleetCutRounds times: recover through local
// detours, repair the link. Recovery may regraft the member, so each round
// cuts the link it hangs from now. Interleaving keeps the mix of joins and
// restores the same throughout the run. Every operation after the first
// claims its own slot in the phase.
func (b *fleetAdmit) playGroup(p *phase, rank int64, tb *traceBuf, log *opLog) error {
	gs := runner.DeriveSeed(b.seed, int(rank))
	grp, err := b.newGroup(gs)
	if err != nil {
		return err
	}
	s := grp.s
	size := max(fleetMinMembers, fleetMaxMembers/(int(rank%fleetRanks)+1))
	for i, m := range b.draw(grp, topology.NewRNG(gs+1), size) {
		if i > 0 && !p.more() {
			return nil
		}
		var err error
		d := timeOp(tb, layerCore, kJoin, s.Stats, func() { _, err = s.Join(m) })
		if err != nil {
			log.fail("group %d join %d: %v", rank, m, err)
			continue
		}
		grp.members[m] = true
		log.ok(kJoin, d)
		for round := 0; round < fleetCutRounds; round++ {
			if !p.more() {
				return nil
			}
			par, ok := s.Tree().Parent(m)
			if !ok || par == graph.Invalid {
				break // parked, or attached at the source's own node
			}
			f := failure.LinkDown(par, m)
			d := timeOp(tb, layerCore, kRestore, s.Stats, func() { _, err = s.Recover(f) })
			if err != nil {
				log.fail("group %d recover %v: %v", rank, f, err)
				break
			}
			log.ok(kRestore, d)
			d = timeOp(tb, layerCore, kRepair, s.Stats, func() { _, err = s.Repair(f) })
			if err != nil {
				log.fail("group %d repair %v: %v", rank, f, err)
				break
			}
			log.ok(kRepair, d)
		}
	}
	return nil
}

func (b *fleetAdmit) state() (state, error) {
	var st state
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, grp := range b.groups {
		st.addSession(grp.s.Stats(), grp.s.MemoryFootprint(), grp.s.Tree().SparseStorage())
	}
	st.spfHits, st.spfMisses = b.cache.Stats()
	st.spfDeltas = b.cache.DeltaRepairs()
	st.cacheEntries = b.cache.Len()
	st.graphBytes = b.g.MemoryFootprint()
	return st, nil
}

func (b *fleetAdmit) check() []string {
	var v []string
	for i, grp := range b.groups {
		v = append(v, checkSession(fmt.Sprintf("group %d", i), grp.s, grp.members)...)
		if !grp.s.Tree().SparseStorage() {
			v = append(v, fmt.Sprintf("group %d: dense storage above the sparse cutover", i))
		}
	}
	return v
}

func (b *fleetAdmit) layerStats() map[string]float64 { return nil }
func (b *fleetAdmit) generateSeconds() float64       { return b.genS }
func (b *fleetAdmit) close()                         {}
