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

// TestDomainDownRepairRevive drives the hierarchy through the degraded-domain
// state machine: failing a domain's agent (its gateway) suspends the whole
// domain, its members park as a group, and repairing the agent revives the
// domain and re-admits them automatically. It runs on the 2-level
// transit–stub topology and once on a 3-level hierarchy.
func TestDomainDownRepairRevive(t *testing.T) {
	t.Run("transit-stub", func(t *testing.T) {
		ts, src := buildTS(t, 3)
		testDomainDownRepairRevive(t, ts, src, pickMembers(ts, src, 8))
	})
	t.Run("3-level", func(t *testing.T) {
		nt, src := buildNLevel(t, 3)
		// One non-gateway receiver in every domain, the core included.
		var members []graph.NodeID
		for _, d := range nt.Domains {
			for _, n := range d.Nodes {
				if n != d.Gateway && n != src {
					members = append(members, n)
					break
				}
			}
		}
		testDomainDownRepairRevive(t, nt, src, members)
	})
}

func testDomainDownRepairRevive(t *testing.T, topo *topology.NLevelTopology, src graph.NodeID, members []graph.NodeID) {
	s, err := NewNLevel(topo, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if err := s.Join(m); err != nil {
			t.Fatalf("Join(%d) = %v", m, err)
		}
	}

	// Pick a member in a leaf domain other than the source's; its domain's
	// gateway is the agent we will fail.
	srcDom := topo.DomainOf(src)
	leaves := topo.Leaves()
	var victim graph.NodeID = graph.Invalid
	for _, m := range members {
		if d := topo.DomainOf(m); d != srcDom && slices.Contains(leaves, d) && m != topo.Domains[d].Gateway {
			victim = m
			break
		}
	}
	if victim == graph.Invalid {
		t.Fatal("no member in a leaf domain outside the source domain")
	}
	dom := topo.DomainOf(victim)
	agent := topo.Domains[dom].Gateway

	reports, err := s.RecoverSet([]failure.Failure{failure.NodeDown(agent)})
	if err != nil {
		t.Fatalf("RecoverSet(NodeDown agent) = %v", err)
	}
	var domainDown bool
	for _, r := range reports {
		if r.DomainID == dom && r.DomainDown {
			domainDown = true
		}
	}
	if !domainDown {
		t.Fatalf("agent failure did not mark domain %d down; reports: %+v", dom, reports)
	}
	// Every member of the down domain is degraded as a group; members
	// elsewhere keep the stream.
	parked := s.Parked()
	for _, m := range members {
		if inDom := topo.DomainOf(m) == dom; inDom != slices.Contains(parked, m) {
			t.Errorf("member %d (in down domain %d: %v) parked = %v", m, dom, inDom, parked)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("degraded hierarchy invalid: %v", err)
	}

	// While the agent is down, further failures inside the domain must
	// accumulate silently (DomainDown again), not error out.
	reports, err = s.RecoverSet([]failure.Failure{failure.NodeDown(victim)})
	if err != nil {
		t.Fatalf("RecoverSet while domain down = %v", err)
	}
	for _, r := range reports {
		if r.DomainID == dom && !r.DomainDown {
			t.Fatalf("domain %d should still be down: %+v", dom, r)
		}
	}

	// Repair both: the agent revives the domain; the victim's own failure is
	// lifted with it, so every parked member of the domain is re-admitted.
	sum, err := s.Repair(failure.NodeDown(agent), failure.NodeDown(victim))
	if err != nil {
		t.Fatalf("Repair = %v", err)
	}
	if !slices.Contains(sum.Revived, dom) {
		t.Fatalf("Revived = %v, want to contain %d", sum.Revived, dom)
	}
	if len(sum.StillParked) != 0 {
		t.Fatalf("StillParked = %v, want empty", sum.StillParked)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("revived hierarchy invalid: %v", err)
	}
	for _, m := range members {
		if _, err := s.EndToEndDelay(m); err != nil {
			t.Errorf("EndToEndDelay(%d) after revival = %v", m, err)
		}
	}
}

// TestHierarchyErrorIdentity pins the typed sentinels of the hierarchy API.
func TestHierarchyErrorIdentity(t *testing.T) {
	ts, src := buildTS(t, 4)
	members := pickMembers(ts, src, 4)
	s := joinAll(t, ts, src, members)
	if _, err := s.RecoverSet(nil); !errors.Is(err, failure.ErrBadSchedule) {
		t.Errorf("RecoverSet(nil) = %v, want ErrBadSchedule", err)
	}
	if _, err := s.RecoverSet([]failure.Failure{{Kind: failure.Kind(99)}}); !errors.Is(err, ErrFailureOutsideDomains) {
		t.Errorf("RecoverSet(bad kind) = %v, want ErrFailureOutsideDomains", err)
	}
	if err := s.Join(graph.NodeID(ts.Graph.NumNodes() + 5)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Join(out of range) = %v, want ErrUnknownNode", err)
	}
	if err := s.Join(members[0]); !errors.Is(err, core.ErrAlreadyMember) {
		t.Errorf("Join(member) = %v, want core.ErrAlreadyMember", err)
	}
	nonMember := ts.Domains[0].Nodes[1]
	if err := s.Leave(nonMember); !errors.Is(err, core.ErrNotMember) {
		t.Errorf("Leave(non-member) = %v, want core.ErrNotMember", err)
	}
	if _, err := s.EndToEndDelay(nonMember); !errors.Is(err, core.ErrNotMember) {
		t.Errorf("EndToEndDelay(non-member) = %v, want core.ErrNotMember", err)
	}
	if _, err := NewNLevel(ts, graph.NodeID(ts.Graph.NumNodes()+1), core.DefaultConfig()); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("NewNLevel(source outside every domain) = %v, want ErrUnknownNode", err)
	}
}
