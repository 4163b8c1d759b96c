package main

import (
	"fmt"

	"smrp/internal/core"
	"smrp/internal/graph"
)

// checkSession verifies one core session after a run: the tree is
// structurally valid, no tree node or tree link lies in the failed mask, and
// every member the harness admitted is on the tree or parked, never both and
// never neither.
func checkSession(name string, s *core.Session, members map[graph.NodeID]bool) []string {
	v := checkTree(name, s)
	tr := s.Tree()
	for m := range members {
		on, parked := tr.IsMember(m), s.IsParked(m)
		switch {
		case on && parked:
			v = append(v, fmt.Sprintf("%s: member %d both on the tree and parked", name, m))
		case !on && !parked:
			v = append(v, fmt.Sprintf("%s: member %d lost", name, m))
		}
	}
	if n := tr.NumMembers() + s.NumParked(); n != len(members) {
		v = append(v, fmt.Sprintf("%s: session holds %d members, harness admitted %d", name, n, len(members)))
	}
	return v
}

// checkTree verifies the tree is valid and avoids every failed component.
func checkTree(name string, s *core.Session) []string {
	var v []string
	tr := s.Tree()
	if err := tr.Validate(); err != nil {
		v = append(v, fmt.Sprintf("%s: tree invalid: %v", name, err))
	}
	mask := s.FailedMask()
	for _, n := range tr.Nodes() {
		if mask.NodeBlocked(n) {
			v = append(v, fmt.Sprintf("%s: failed node %d on the tree", name, n))
		}
		if p, ok := tr.Parent(n); ok && p != graph.Invalid && mask.EdgeBlocked(p, n) {
			v = append(v, fmt.Sprintf("%s: failed link %d-%d on the tree", name, p, n))
		}
	}
	return v
}
