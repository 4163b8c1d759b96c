// Package hierarchy implements the paper's hierarchical recovery
// architecture (§3.3.3, Figure 6): the network is partitioned into a tree of
// recovery domains, each domain runs its own SMRP sub-session rooted at a
// domain agent, and any failure is recovered entirely inside the domain
// where it occurred. This bounds the scope of tree reconfiguration and makes
// SMRP scale to large networks.
//
// One session type, NLevelSession, serves every depth. The paper's 2-level
// transit–stub instantiation is the depth-2 case (topology.GenerateTransitStub):
// every stub is a level-1 domain whose agent is its gateway router, the
// transit core plus the stub agents form the level-0 domain, and the agent
// of the source's stub relays packets into the core (A₁ in Figure 6).
package hierarchy

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// Errors returned by NLevelSession operations.
var (
	// ErrUnknownNode is returned when a node belongs to no recovery domain.
	ErrUnknownNode = errors.New("hierarchy: node belongs to no recovery domain")
	// ErrFailureOutsideDomains is returned when a failure cannot be
	// attributed to a recovery domain's session.
	ErrFailureOutsideDomains = errors.New("hierarchy: failure outside all recovery domains")
)

// domainSession is one recovery domain's sub-multicast tree, built over the
// induced subgraph of the domain's nodes plus its children's gateways.
type domainSession struct {
	session *core.Session
	nm      *graph.NodeMap
}

// newDomainSession builds a sub-session over the induced subgraph of nodes,
// rooted at root (full-graph IDs).
func newDomainSession(g *graph.Graph, nodes []graph.NodeID, root graph.NodeID, cfg core.Config) (*domainSession, error) {
	sub, nm, err := g.Subgraph(nodes)
	if err != nil {
		return nil, err
	}
	// Sub-sessions route over the induced subgraph but never mutate it
	// (failures are mask-based), so freeze it into the CSR representation:
	// at megascale the per-domain copies are the hierarchy's dominant memory
	// term, and the sorted-pair form halves their edge storage.
	sub.Freeze()
	subRoot, ok := nm.ToSub(root)
	if !ok {
		return nil, fmt.Errorf("root %d not in domain", root)
	}
	sess, err := core.NewSession(sub, subRoot, cfg)
	if err != nil {
		return nil, err
	}
	return &domainSession{session: sess, nm: nm}, nil
}

// join admits a full-graph node into the domain's sub-session.
func (d *domainSession) join(n graph.NodeID) (*core.JoinResult, error) {
	sub, ok := d.nm.ToSub(n)
	if !ok {
		return nil, fmt.Errorf("join %d: %w", n, ErrUnknownNode)
	}
	return d.session.Join(sub)
}

// leave removes a full-graph node from the domain's sub-session.
func (d *domainSession) leave(n graph.NodeID) error {
	sub, ok := d.nm.ToSub(n)
	if !ok {
		return fmt.Errorf("leave %d: %w", n, ErrUnknownNode)
	}
	return d.session.Leave(sub)
}

// isMember reports membership of a full-graph node.
func (d *domainSession) isMember(n graph.NodeID) bool {
	sub, ok := d.nm.ToSub(n)
	return ok && d.session.Tree().IsMember(sub)
}

// NLevelSession is a hierarchical SMRP session over an N-level domain
// hierarchy: every domain runs its own SMRP sub-session over its nodes plus
// its children's gateways; agents relay across levels; a failure is
// recovered entirely inside the domain(s) it touches.
type NLevelSession struct {
	topo *topology.NLevelTopology

	// sessions[i] is domain i's sub-session; sourceChain lists domain
	// indices from the source's domain up to the root, and onChain marks
	// them.
	sessions    []*domainSession
	sourceChain []int
	onChain     []bool
	members     map[graph.NodeID]bool
}

// NewNLevel builds an N-level session over t with the true source at src.
func NewNLevel(t *topology.NLevelTopology, src graph.NodeID, cfg core.Config) (*NLevelSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srcDom := t.DomainOf(src)
	if srcDom < 0 {
		return nil, fmt.Errorf("hierarchy: source %d: %w", src, ErrUnknownNode)
	}
	s := &NLevelSession{
		topo:    t,
		onChain: make([]bool, len(t.Domains)),
		members: make(map[graph.NodeID]bool),
	}
	for d := srcDom; d != -1; d = t.Domains[d].Parent {
		s.sourceChain = append(s.sourceChain, d)
		s.onChain[d] = true
	}

	// Build every domain's sub-session. The session graph covers the
	// domain's nodes plus its children's gateways. The root of the session:
	//   - the true source, in the source's own domain;
	//   - the gateway of the chain child, in ancestors of the source domain
	//     (the relaying agent, Figure 6's A₁ generalized);
	//   - the domain's own gateway everywhere else (data arrives from the
	//     parent through it).
	s.sessions = make([]*domainSession, len(t.Domains))
	for i := range t.Domains {
		d := &t.Domains[i]
		nodes := append([]graph.NodeID(nil), d.Nodes...)
		for _, c := range d.Children {
			nodes = append(nodes, t.Domains[c].Gateway)
		}
		root := d.Gateway
		switch {
		case i == srcDom:
			root = src
		case s.onChain[i]:
			root = t.Domains[s.chainChild(i)].Gateway
		}
		ds, err := newDomainSession(t.Graph, nodes, root, cfg)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: domain %d: %w", i, err)
		}
		s.sessions[i] = ds
	}

	// Wire the upward relay chain: in every source-chain domain with a
	// parent, the domain's own gateway joins as a member so it can push the
	// stream up into the parent's session (where it is the root).
	for _, i := range s.sourceChain {
		d := &t.Domains[i]
		if d.Parent == -1 {
			continue
		}
		ds := s.sessions[i]
		if !ds.isMember(d.Gateway) {
			if _, err := ds.join(d.Gateway); err != nil {
				return nil, fmt.Errorf("hierarchy: relay agent of domain %d: %w", i, err)
			}
		}
	}
	return s, nil
}

// chainChild returns the source-chain child of chain domain i.
func (s *NLevelSession) chainChild(i int) int {
	for k, d := range s.sourceChain {
		if d == i && k > 0 {
			return s.sourceChain[k-1]
		}
	}
	return -1
}

// Join admits receiver n, which may live in any domain. Agents along the
// path toward the source chain join their parent sessions transparently as
// needed.
func (s *NLevelSession) Join(n graph.NodeID) error {
	if s.members[n] {
		return fmt.Errorf("hierarchy: join %d: %w", n, core.ErrAlreadyMember)
	}
	di := s.topo.DomainOf(n)
	if di < 0 {
		return fmt.Errorf("hierarchy: join %d: %w", n, ErrUnknownNode)
	}
	ds := s.sessions[di]
	if !ds.isMember(n) { // a source-chain relay agent is already a member
		if _, err := ds.join(n); err != nil {
			return fmt.Errorf("hierarchy: join %d in domain %d: %w", n, di, err)
		}
	}
	s.members[n] = true
	// Hook the domain chain into the delivery structure: for every domain
	// from n's up to (but excluding) the first that already carries the
	// stream, the domain's gateway joins the parent session. The root is on
	// the source chain, so the walk always stops there at the latest.
	for d := di; !s.onChain[d]; d = s.topo.Domains[d].Parent {
		dom := &s.topo.Domains[d]
		ps := s.sessions[dom.Parent]
		if ps.isMember(dom.Gateway) {
			break // already delivered here
		}
		if _, err := ps.join(dom.Gateway); err != nil {
			return fmt.Errorf("hierarchy: agent %d join domain %d: %w", dom.Gateway, dom.Parent, err)
		}
	}
	return nil
}

// Leave removes receiver n. Agent chains are left in place: they expire via
// soft state in a deployment, and Validate tolerates relay-only domains.
func (s *NLevelSession) Leave(n graph.NodeID) error {
	if !s.members[n] {
		return fmt.Errorf("hierarchy: leave %d: %w", n, core.ErrNotMember)
	}
	di := s.topo.DomainOf(n)
	// A source-chain gateway stays connected as the relay agent even after
	// it stops being a receiver itself.
	if !(s.onChain[di] && n == s.topo.Domains[di].Gateway) {
		if err := s.sessions[di].leave(n); err != nil {
			return err
		}
	}
	delete(s.members, n)
	return nil
}

// Members returns the receivers in ascending order.
func (s *NLevelSession) Members() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// DomainSession exposes domain i's sub-session and node map.
func (s *NLevelSession) DomainSession(i int) (*core.Session, *graph.NodeMap, error) {
	if i < 0 || i >= len(s.sessions) {
		return nil, nil, fmt.Errorf("hierarchy: no domain %d", i)
	}
	return s.sessions[i].session, s.sessions[i].nm, nil
}

// EndToEndDelay computes the delivery delay to member m across the domain
// hierarchy: up the source chain agent by agent to the deepest common
// ancestor, then down the member's chain gateway by gateway.
func (s *NLevelSession) EndToEndDelay(m graph.NodeID) (float64, error) {
	if !s.members[m] {
		return 0, fmt.Errorf("hierarchy: delay %d: %w", m, core.ErrNotMember)
	}
	// m's domain chain up to the first source-chain domain: the deepest
	// common ancestor.
	chain := []int{s.topo.DomainOf(m)}
	for d := chain[0]; !s.onChain[d]; {
		d = s.topo.Domains[d].Parent
		chain = append(chain, d)
	}
	common := chain[len(chain)-1]
	// Ascend the source chain: in each domain below the ancestor, the delay
	// from the session root to its gateway (the relay handoff into the
	// parent, where that gateway is the root).
	var cum float64
	for _, d := range s.sourceChain {
		if d == common {
			break
		}
		v, err := s.delayIn(d, s.topo.Domains[d].Gateway)
		if err != nil {
			return 0, err
		}
		cum += v
	}
	// Descend from the common ancestor to m.
	for k := len(chain) - 1; k >= 0; k-- {
		target := m
		if k > 0 {
			target = s.topo.Domains[chain[k-1]].Gateway
		}
		v, err := s.delayIn(chain[k], target)
		if err != nil {
			return 0, err
		}
		cum += v
	}
	return cum, nil
}

// delayIn returns the delay from domain d's session root to node n (full
// IDs).
func (s *NLevelSession) delayIn(d int, n graph.NodeID) (float64, error) {
	ds := s.sessions[d]
	sub, ok := ds.nm.ToSub(n)
	if !ok {
		return 0, fmt.Errorf("hierarchy: node %d not in domain %d", n, d)
	}
	return ds.session.Tree().DelayTo(sub)
}

// SettledWork sums the settled-node work counters across every domain
// sub-session: enum is candidate-enumeration work (joins, reshapes), heal is
// failure-recovery sweep work. Both are deterministic, making them the
// megascale study's CI-stable unit of comparison against a flat session.
func (s *NLevelSession) SettledWork() (enum, heal int) {
	for _, ds := range s.sessions {
		st := ds.session.Stats()
		enum += st.EnumSettled
		heal += st.HealSettled
	}
	return enum, heal
}

// SubgraphBytes reports the deterministic memory footprint of the per-domain
// induced subgraphs the sub-sessions route over — the memory the hierarchy
// pays on top of the shared full topology in exchange for domain-confined
// recovery. The sum is O(N·avg-degree) total because every node belongs to
// exactly one domain (gateways additionally appear in their parent's
// session).
func (s *NLevelSession) SubgraphBytes() int64 {
	var total int64
	for _, ds := range s.sessions {
		total += ds.session.Graph().MemoryFootprint()
	}
	return total
}

// NumDomains returns the number of domain sub-sessions.
func (s *NLevelSession) NumDomains() int { return len(s.sessions) }

// Validate checks every domain session's structural invariants.
func (s *NLevelSession) Validate() error {
	for i, ds := range s.sessions {
		if err := ds.session.Tree().Validate(); err != nil {
			return fmt.Errorf("hierarchy: domain %d: %w", i, err)
		}
	}
	return nil
}
