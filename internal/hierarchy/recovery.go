package hierarchy

import (
	"fmt"
	"slices"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// This file is §3.3.3's domain-confined recovery in the multi-failure
// regime: correlated batches that straddle domains, node failures (including
// a domain's own agent), graceful domain-wide degradation while an agent is
// down, and repair-driven revival with automatic re-admission.

// RecoveryReport describes a domain-confined recovery.
type RecoveryReport struct {
	// DomainID is the recovery domain that handled the failure (0 = the
	// root/core domain).
	DomainID int
	// Level is the domain's depth: 0 for the core, 1 for its children (the
	// stubs of a transit–stub hierarchy), and so on.
	Level int
	// Heal is the domain-local SMRP recovery report, in the domain's local
	// ID space.
	Heal *core.HealReport
	// NodesInDomain is the size of the domain that had to react — its own
	// routers plus its children's gateways. Every other domain is
	// untouched, which is the scalability argument of §3.3.3.
	NodesInDomain int
	// DomainDown reports that the domain's own agent is down: recovery
	// there is suspended (Heal is nil) and its members are degraded as a
	// group until a Repair revives the agent.
	DomainDown bool
}

// attribution pairs a recovery domain with a failure translated into the
// domain session's local ID space.
type attribution struct {
	domain int
	local  failure.Failure
}

// attribute appends to out every recovery domain f touches. A link inside
// one domain is that domain's problem; a gateway uplink (child gateway ↔
// parent node) belongs to the parent, whose session holds both ends. A node
// failure hits the node's own domain; a gateway failure additionally hits
// the parent domain, where the node doubles as the child's agent.
func (s *NLevelSession) attribute(f failure.Failure, out []attribution) ([]attribution, error) {
	switch f.Kind {
	case failure.LinkFailure:
		du, dv := s.topo.DomainOf(f.Edge.A), s.topo.DomainOf(f.Edge.B)
		if du < 0 || dv < 0 {
			return nil, ErrFailureOutsideDomains
		}
		target := du
		if s.topo.Domains[du].Parent == dv {
			target = dv
		} else if du != dv && s.topo.Domains[dv].Parent != du {
			return nil, fmt.Errorf("hierarchy: link %v spans unrelated domains %d/%d: %w", f.Edge, du, dv, ErrFailureOutsideDomains)
		}
		nm := s.sessions[target].nm
		a, okA := nm.ToSub(f.Edge.A)
		b, okB := nm.ToSub(f.Edge.B)
		if !okA || !okB {
			return nil, fmt.Errorf("hierarchy: link %v not inside domain %d's session: %w", f.Edge, target, ErrFailureOutsideDomains)
		}
		return append(out, attribution{target, failure.LinkDown(a, b)}), nil

	case failure.NodeFailure:
		d := s.topo.DomainOf(f.Node)
		if d < 0 {
			return nil, ErrFailureOutsideDomains
		}
		sub, _ := s.sessions[d].nm.ToSub(f.Node)
		out = append(out, attribution{d, failure.NodeDown(sub)})
		if dom := &s.topo.Domains[d]; f.Node == dom.Gateway && dom.Parent != -1 {
			psub, _ := s.sessions[dom.Parent].nm.ToSub(f.Node)
			out = append(out, attribution{dom.Parent, failure.NodeDown(psub)})
		}
		return out, nil

	default:
		return nil, fmt.Errorf("hierarchy: failure kind %v: %w", f.Kind, ErrFailureOutsideDomains)
	}
}

// forEachBatch attributes every failure in fs, then calls visit once per
// touched recovery domain with the domain's failures translated to its local
// ID space, in input order. Domains come in heal order: deepest level first,
// then ascending domain ID, so damage below is settled before an ancestor
// reacts to its agents.
func (s *NLevelSession) forEachBatch(fs []failure.Failure, visit func(domain int, local []failure.Failure) error) error {
	var buf [4]attribution // a single failure touches at most two domains
	atts := buf[:0]
	for _, f := range fs {
		var err error
		if atts, err = s.attribute(f, atts); err != nil {
			return err
		}
	}
	slices.SortStableFunc(atts, func(a, b attribution) int {
		if la, lb := s.topo.Domains[a.domain].Level, s.topo.Domains[b.domain].Level; la != lb {
			return lb - la
		}
		return a.domain - b.domain
	})
	local := make([]failure.Failure, len(atts))
	for i, a := range atts {
		local[i] = a.local
	}
	for i, j := 0, 0; i < len(atts); i = j {
		for j = i + 1; j < len(atts) && atts[j].domain == atts[i].domain; j++ {
		}
		if err := visit(atts[i].domain, local[i:j:j]); err != nil {
			return err
		}
	}
	return nil
}

// Recover handles one failure: RecoverSet of a one-element batch. When the
// failure touches several domains (a gateway crash also hits the parent),
// the report of the deepest one — the node's own domain — is returned.
func (s *NLevelSession) Recover(f failure.Failure) (*RecoveryReport, error) {
	reports, err := s.RecoverSet([]failure.Failure{f})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// RecoverSet handles a correlated failure batch (an SRLG cut): each failure
// is attributed to the recovery domain(s) it touches, and every touched
// domain heals its own sub-tree, in heal order — all other domains are
// untouched, which is the scalability argument of §3.3.3. Domains whose
// agent is (or goes) down degrade gracefully: recovery there is suspended,
// the failures keep accumulating in the domain's mask, and the report
// carries DomainDown; a later Repair that revives the agent reconciles the
// domain automatically.
func (s *NLevelSession) RecoverSet(fs []failure.Failure) ([]*RecoveryReport, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("hierarchy: recover: %w: empty failure set", failure.ErrBadSchedule)
	}
	var reports []*RecoveryReport
	err := s.forEachBatch(fs, func(d int, local []failure.Failure) error {
		dom := &s.topo.Domains[d]
		sess := s.sessions[d].session
		rep := &RecoveryReport{DomainID: d, Level: dom.Level, NodesInDomain: len(dom.Nodes) + len(dom.Children)}
		reports = append(reports, rep)
		// A domain whose agent is already down stays suspended; one whose
		// agent fails in this batch is rejected by Recover without touching
		// the mask. Either way the failures must accumulate so revival
		// reconciles against every one of them.
		if sess.SourceDown() || failure.TakesDownNode(local, sess.Tree().Source()) {
			sess.ApplyFailure(local...)
			rep.DomainDown = true
			return nil
		}
		var err error
		if rep.Heal, err = sess.Recover(local...); err != nil {
			return fmt.Errorf("hierarchy: heal domain %d: %w", d, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// RepairSummary describes a hierarchy-level repair: which domains came back
// from the degraded state and which receivers were re-admitted.
type RepairSummary struct {
	// Repaired lists the components restored.
	Repaired []failure.Failure
	// Revived lists recovery domains whose agent came back up (and whose
	// sub-tree was reconciled against everything that failed while it was
	// down), in heal order: deepest level first, then ascending ID.
	Revived []int
	// Readmitted lists receivers re-admitted somewhere in the hierarchy by
	// this repair, ascending (full-graph IDs).
	Readmitted []graph.NodeID
	// StillParked lists receivers that remain degraded afterwards.
	StillParked []graph.NodeID
}

// Repair restores failed components across the hierarchy. Each touched
// domain lifts the repairs from its mask and automatically re-admits the
// members the repair reconnects; a domain whose agent comes back is
// reconciled against every failure that accumulated while it was down.
func (s *NLevelSession) Repair(fs ...failure.Failure) (*RepairSummary, error) {
	sum := &RepairSummary{Repaired: fs}
	err := s.forEachBatch(fs, func(d int, local []failure.Failure) error {
		ds := s.sessions[d]
		wasDown := ds.session.SourceDown()
		rep, err := ds.session.Repair(local...)
		if err != nil {
			return fmt.Errorf("hierarchy: repair domain %d: %w", d, err)
		}
		for _, m := range rep.Readmitted {
			if full, ok := ds.nm.ToFull(m); ok && s.members[full] {
				sum.Readmitted = append(sum.Readmitted, full)
			}
		}
		if wasDown && !ds.session.SourceDown() {
			// The agent is back: reconcile the domain tree against whatever
			// else failed while it was suspended.
			if _, err := ds.session.Reconcile(); err != nil {
				return fmt.Errorf("hierarchy: revive domain %d: %w", d, err)
			}
			sum.Revived = append(sum.Revived, d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(sum.Readmitted)
	sum.StillParked = s.Parked()
	return sum, nil
}

// Parked lists the receivers currently degraded, ascending: a receiver is
// degraded when any domain on its delivery path is down or has parked the
// node it must deliver to. The path runs up the source chain from the
// source's domain to the deepest common ancestor — each relay agent must
// still get the stream — and then down the receiver's own domain chain to
// the receiver.
func (s *NLevelSession) Parked() []graph.NodeID {
	out := make([]graph.NodeID, 0)
	for m := range s.members {
		if !s.delivered(m) {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// delivered reports whether the stream reaches member m.
func (s *NLevelSession) delivered(m graph.NodeID) bool {
	// Down-leg: m's own domain, then each ancestor up to the first
	// source-chain domain (the common ancestor), must reach the node it
	// hands the stream to.
	target, d := m, s.topo.DomainOf(m)
	for !s.onChain[d] {
		if !s.reaches(d, target) {
			return false
		}
		target, d = s.topo.Domains[d].Gateway, s.topo.Domains[d].Parent
	}
	if !s.reaches(d, target) {
		return false
	}
	// Up-leg: every source-chain domain below the ancestor must reach its
	// own relay gateway.
	for _, c := range s.sourceChain {
		if c == d {
			break
		}
		if !s.reaches(c, s.topo.Domains[c].Gateway) {
			return false
		}
	}
	return true
}

// reaches reports whether domain d's session delivers to full-graph node n:
// the domain's agent is up and n is not parked there.
func (s *NLevelSession) reaches(d int, n graph.NodeID) bool {
	ds := s.sessions[d]
	if ds.session.SourceDown() {
		return false
	}
	sub, ok := ds.nm.ToSub(n)
	return !ok || !ds.session.IsParked(sub)
}
