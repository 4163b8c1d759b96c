package hierarchy

import (
	"errors"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// The tests in this file run NLevelSession over the paper's 2-level
// transit–stub topology: domain 0 is the transit core, domains 1..4 are the
// stubs.

// buildTS generates the default 4-transit/4-stub topology and returns it
// with a source placed inside the first stub domain.
func buildTS(t *testing.T, seed uint64) (*topology.NLevelTopology, graph.NodeID) {
	t.Helper()
	ts, err := topology.GenerateTransitStub(topology.DefaultTransitStubConfig(), topology.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	// Source: a non-gateway node of the first stub.
	stub := ts.Domains[1]
	for _, n := range stub.Nodes {
		if n != stub.Gateway {
			return ts, n
		}
	}
	t.Fatal("no non-gateway node in the first stub")
	return nil, 0
}

// pickMembers returns up to k non-gateway, non-source receivers spread over
// all stub domains.
func pickMembers(ts *topology.NLevelTopology, src graph.NodeID, k int) []graph.NodeID {
	var out []graph.NodeID
	stubs := ts.Domains[1:]
	for round := 0; len(out) < k && round < 16; round++ {
		for i := range stubs {
			if len(out) >= k {
				break
			}
			nodes := stubs[i].Nodes
			if round < len(nodes) {
				n := nodes[round]
				if n != src && n != stubs[i].Gateway {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// joinAll builds a session over ts rooted at src and admits members.
func joinAll(t *testing.T, ts *topology.NLevelTopology, src graph.NodeID, members []graph.NodeID) *NLevelSession {
	t.Helper()
	s, err := NewNLevel(ts, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if err := s.Join(m); err != nil {
			t.Fatalf("join %d: %v", m, err)
		}
	}
	return s
}

// TestNewValidation pins construction: a source in any domain is accepted
// (the core included), a source outside every domain and a bad config are
// rejected.
func TestNewValidation(t *testing.T) {
	ts, _ := buildTS(t, 1)
	if _, err := NewNLevel(ts, ts.Domains[0].Nodes[0], core.DefaultConfig()); err != nil {
		t.Errorf("source in the transit core: %v", err)
	}
	if _, err := NewNLevel(ts, graph.NodeID(ts.Graph.NumNodes()), core.DefaultConfig()); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("source outside every domain = %v, want ErrUnknownNode", err)
	}
	bad := core.DefaultConfig()
	bad.DThresh = -1
	if _, err := NewNLevel(ts, ts.Domains[1].Nodes[0], bad); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestJoinAcrossDomains(t *testing.T) {
	ts, src := buildTS(t, 2)
	members := pickMembers(ts, src, 8)
	s := joinAll(t, ts, src, members)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Members()); got != len(members) {
		t.Errorf("members = %d, want %d", got, len(members))
	}
	// Every member domain's agent sits on the level-0 tree.
	topSess, topNM, _ := s.DomainSession(0)
	for _, m := range members {
		d := ts.DomainOf(m)
		agentSub, ok := topNM.ToSub(ts.Domains[d].Gateway)
		if !ok {
			t.Fatalf("agent of domain %d not in top session", d)
		}
		if !topSess.Tree().OnTree(agentSub) {
			t.Errorf("agent of domain %d not on level-0 tree", d)
		}
	}
	if err := s.Join(members[0]); !errors.Is(err, core.ErrAlreadyMember) {
		t.Errorf("duplicate join = %v, want ErrAlreadyMember", err)
	}
	// End-to-end delay is positive and finite for every member.
	for _, m := range members {
		d, err := s.EndToEndDelay(m)
		if err != nil {
			t.Fatalf("delay %d: %v", m, err)
		}
		if d <= 0 {
			t.Errorf("member %d delay = %v", m, d)
		}
	}
}

// TestLeaveEmptiesDomain pins the soft-state leave: when a domain's last
// receiver leaves, its agent stays joined to the level-0 tree, so a later
// join in the domain needs no agent re-join.
func TestLeaveEmptiesDomain(t *testing.T) {
	ts, src := buildTS(t, 3)
	stub := ts.Domains[2]
	var others []graph.NodeID
	for _, n := range stub.Nodes {
		if n != stub.Gateway {
			others = append(others, n)
		}
	}
	if len(others) < 2 {
		t.Fatal("no candidate members")
	}
	m := others[0]
	s := joinAll(t, ts, src, []graph.NodeID{m})
	topSess, topNM, _ := s.DomainSession(0)
	agentSub, _ := topNM.ToSub(stub.Gateway)
	if !topSess.Tree().IsMember(agentSub) {
		t.Fatal("agent should be on top tree while domain has members")
	}
	topEdges := topSess.Tree().Edges()
	if err := s.Leave(m); err != nil {
		t.Fatal(err)
	}
	if !topSess.Tree().IsMember(agentSub) {
		t.Error("agent should stay on the top tree as soft state when its domain empties")
	}
	if err := s.Leave(m); !errors.Is(err, core.ErrNotMember) {
		t.Errorf("double leave = %v, want ErrNotMember", err)
	}
	if err := s.Join(others[1]); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(topSess.Tree().Edges(), topEdges) {
		t.Error("re-populating the domain should not touch the level-0 tree")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDomainConfinedRecovery is the §3.3.3 claim: a failure inside one stub
// domain is recovered entirely within that domain; all other sub-trees are
// byte-for-byte untouched.
func TestDomainConfinedRecovery(t *testing.T) {
	ts, src := buildTS(t, 4)
	members := pickMembers(ts, src, 8)
	s := joinAll(t, ts, src, members)

	// Find a victim member in a non-source stub and its worst-case link
	// inside that stub.
	victim, victimDomain := graph.Invalid, -1
	for _, m := range members {
		if d := ts.DomainOf(m); d != ts.DomainOf(src) {
			victim, victimDomain = m, d
			break
		}
	}
	if victim == graph.Invalid {
		t.Skip("no member outside the source domain in this draw")
	}
	sess, nm, err := s.DomainSession(victimDomain)
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := nm.ToSub(victim)
	f, err := failure.WorstCaseFor(sess.Tree(), sub)
	if err != nil {
		t.Fatal(err)
	}
	fullA, _ := nm.ToFull(f.Edge.A)
	fullB, _ := nm.ToFull(f.Edge.B)

	// Snapshot all OTHER domains' trees, the core included.
	before := make(map[int][]graph.EdgeID)
	for id := range ts.Domains {
		if id == victimDomain {
			continue
		}
		o, _, err := s.DomainSession(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = o.Tree().Edges()
	}

	rep, err := s.Recover(failure.LinkDown(fullA, fullB))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DomainID != victimDomain || rep.Level != 1 {
		t.Errorf("recovery attributed to domain %d level %d, want %d level 1", rep.DomainID, rep.Level, victimDomain)
	}
	if rep.NodesInDomain >= ts.Graph.NumNodes() {
		t.Error("recovery scope should be a strict subset of the network")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, edges := range before {
		o, _, _ := s.DomainSession(id)
		if !slices.Equal(o.Tree().Edges(), edges) {
			t.Errorf("domain %d changed during foreign recovery", id)
		}
	}
}

// TestCoreRecoveryLevel0 checks that transit-core failures are healed in the
// level-0 domain.
func TestCoreRecoveryLevel0(t *testing.T) {
	ts, src := buildTS(t, 5)
	s := joinAll(t, ts, src, pickMembers(ts, src, 6))
	// Fail a transit-core link that the level-0 tree actually uses.
	topSess, topNM, _ := s.DomainSession(0)
	edges := topSess.Tree().Edges()
	if len(edges) == 0 {
		t.Skip("level-0 tree has no edges in this draw")
	}
	a, _ := topNM.ToFull(edges[len(edges)-1].A)
	b, _ := topNM.ToFull(edges[len(edges)-1].B)
	rep, err := s.Recover(failure.LinkDown(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level != 0 || rep.DomainID != 0 {
		t.Errorf("recovery level = %d domain %d, want level 0 domain 0", rep.Level, rep.DomainID)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverNodeFailure pins node-failure attribution: a transit node hits
// only the core; a stub gateway hits its stub and, as the stub's agent, the
// core too — the stub first in heal order.
func TestRecoverNodeFailure(t *testing.T) {
	ts, src := buildTS(t, 6)
	s := joinAll(t, ts, src, pickMembers(ts, src, 8))
	core0 := ts.Domains[0]
	rep, err := s.Recover(failure.NodeDown(core0.Nodes[len(core0.Nodes)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level != 0 || rep.DomainID != 0 {
		t.Errorf("recovery level = %d domain %d, want level 0 domain 0", rep.Level, rep.DomainID)
	}

	reports, err := s.RecoverSet([]failure.Failure{failure.NodeDown(ts.Domains[3].Gateway)})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, r := range reports {
		got = append(got, r.DomainID)
	}
	if !slices.Equal(got, []int{3, 0}) {
		t.Errorf("gateway failure healed in domains %v, want [3 0]", got)
	}
	if !reports[0].DomainDown || reports[1].DomainDown {
		t.Errorf("stub 3 should be down (its agent failed), the core should heal: %+v %+v", reports[0], reports[1])
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinErrors pins receiver admission: receivers may live in any domain
// (the transit core included); unknown nodes and non-member leaves fail.
func TestJoinErrors(t *testing.T) {
	ts, src := buildTS(t, 7)
	s, err := NewNLevel(ts, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	transit := ts.Domains[0].Nodes[1]
	if err := s.Join(transit); err != nil {
		t.Errorf("transit receiver: %v", err)
	} else if d, err := s.EndToEndDelay(transit); err != nil || d <= 0 {
		t.Errorf("transit receiver delay = %v, %v", d, err)
	}
	if err := s.Join(graph.NodeID(ts.Graph.NumNodes() + 4)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node = %v, want ErrUnknownNode", err)
	}
	if err := s.Leave(ts.Domains[1].Nodes[0]); !errors.Is(err, core.ErrNotMember) {
		t.Errorf("leave of non-member = %v, want ErrNotMember", err)
	}
}

// TestParkedSourceRelayCut is the regression for receivers cut off on the
// source side. On seed 1 the source is node 4 in stub 1, whose relay
// gateway is node 7; the 8 receivers are 5 and 6 (stub 1), 16 and 17
// (stub 2), 28 and 29 (stub 3) and 40 and 41 (stub 4). Cutting all six
// intra-stub links at node 7 parks the gateway inside stub 1, so the stream
// never leaves the source's stub: the six receivers outside it are
// degraded, while 5 and 6 are still served inside stub 1.
func TestParkedSourceRelayCut(t *testing.T) {
	ts, src := buildTS(t, 1)
	members := pickMembers(ts, src, 8)
	s := joinAll(t, ts, src, members)
	gw := ts.Domains[1].Gateway
	if src != 4 || gw != 7 || !slices.Equal(members, []graph.NodeID{16, 28, 40, 5, 17, 29, 41, 6}) {
		t.Fatalf("seed-1 draw changed: src %d, gateway %d, members %v", src, gw, members)
	}
	var cut []failure.Failure
	for _, n := range []graph.NodeID{4, 5, 8, 10, 13, 14} {
		cut = append(cut, failure.LinkDown(gw, n))
	}
	reports, err := s.RecoverSet(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].DomainID != 1 || reports[0].DomainDown {
		t.Fatalf("reports = %+v, want one stub-1 heal", reports)
	}
	want := []graph.NodeID{16, 17, 28, 29, 40, 41}
	if got := s.Parked(); !slices.Equal(got, want) {
		t.Errorf("Parked = %v, want %v", got, want)
	}
	// Restoring one link brings the relay back and clears every receiver.
	sum, err := s.Repair(cut[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.StillParked) != 0 {
		t.Errorf("StillParked = %v after the relay is reconnected", sum.StillParked)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
