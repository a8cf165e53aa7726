package db

import (
	"fmt"
	"strings"

	"resultdb/internal/core"
	"resultdb/internal/engine"
)

// PostJoinPlan is the paper's "subdatabase snapshot" extension (Section 7,
// item 5): alongside the reduced relations, the server ships the recipe for
// reconstructing the single-table result — the join predicates among the
// returned relations and the final projection — so clients can execute the
// post-join mechanically without re-parsing or even knowing the original
// query.
type PostJoinPlan struct {
	// Preds are the join predicates whose both sides are present in the
	// returned relations (predicates through non-returned relations were
	// already enforced by the reduction).
	Preds []engine.JoinPred
	// Projection is the original single-table projection, restricted to
	// returned relations.
	Projection []engine.Attr

	// memo keeps the plan's wire payload once the result cache owns the
	// result (see PayloadMemo); nil otherwise.
	memo *PayloadMemo
}

// Empty reports whether the plan carries nothing to do (single-relation
// results).
func (p *PostJoinPlan) Empty() bool {
	return p == nil || len(p.Preds) == 0 && len(p.Projection) == 0
}

// String renders the plan for humans.
func (p *PostJoinPlan) String() string {
	if p == nil {
		return "<none>"
	}
	var preds, proj []string
	for _, j := range p.Preds {
		preds = append(preds, j.String())
	}
	for _, a := range p.Projection {
		proj = append(proj, a.String())
	}
	return fmt.Sprintf("post-join on [%s] project [%s]",
		strings.Join(preds, " AND "), strings.Join(proj, ", "))
}

// buildPostJoinPlan derives the shipped plan from the analyzed query and the
// set of returned relation aliases.
func buildPostJoinPlan(spec *engine.SPJSpec, outputs []string) *PostJoinPlan {
	in := map[string]bool{}
	for _, a := range outputs {
		in[strings.ToLower(a)] = true
	}
	plan := &PostJoinPlan{}
	for _, p := range spec.JoinPreds {
		if in[strings.ToLower(p.LeftRel)] && in[strings.ToLower(p.RightRel)] {
			plan.Preds = append(plan.Preds, p)
		}
	}
	for _, a := range spec.Projection {
		if in[strings.ToLower(a.Rel)] {
			plan.Projection = append(plan.Projection, a)
		}
	}
	return plan
}

// SetRelations returns the relations a post-join joins: sets as engine
// relations, keyed by lower-cased set name.
func SetRelations(sets []*ResultSet) map[string]*engine.Relation {
	rels := make(map[string]*engine.Relation, len(sets))
	for _, set := range sets {
		rels[strings.ToLower(set.Name)] = setToRelation(set)
	}
	return rels
}

// ExecutePostJoinPlan reconstructs the single-table result from a
// relationship-preserving result that carries a shipped plan. It is a pure
// client-side computation over the result sets (no database access), so it
// also runs on results received over the wire.
func ExecutePostJoinPlan(res *Result) (*ResultSet, error) {
	if res.PostJoinPlan == nil {
		return nil, fmt.Errorf("db: result carries no post-join plan (not an RDBRP result?)")
	}
	return boxedSet(executePostJoin(res.PostJoinPlan, res.Sets))
}

// executePostJoin joins sets on plan's predicates and projects its attributes.
func executePostJoin(plan *PostJoinPlan, sets []*ResultSet) (*ResultSet, error) {
	rel, err := core.PostJoin(plan.Preds, SetRelations(sets), plan.Projection)
	if err != nil {
		return nil, err
	}
	return relToSet("postjoin", rel, rel.ColumnNames()), nil
}
