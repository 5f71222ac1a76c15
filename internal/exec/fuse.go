package exec

import (
	"context"
	"time"

	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/storage"
)

// fusedJoinGroupBy evaluates GroupBy(Join(l, r)) without materializing
// the join: probe-side matches feed the aggregation hash table directly.
// This is the classic pipelined join+aggregate fusion; it is gated behind
// Engine.FuseJoinGroupBy because the default materializing operators are
// what the paper's IO-based cost model describes.
func (e *Engine) fusedJoinGroupBy(ctx context.Context, l, r *Table, groupVars []string, st *RunStats) (*Table, error) {
	lCols, rCols, rExtra, outAttrs, err := joinSchema(l, r)
	if err != nil {
		return nil, err
	}
	// Column positions of the group variables in the (virtual) join
	// output: left columns first, then r's extra columns.
	joinCol := func(v string) int {
		if c := l.ColIndex(v); c >= 0 {
			return c
		}
		for i, rc := range rExtra {
			if r.Attrs[rc].Name == v {
				return len(l.Attrs) + i
			}
		}
		return -1
	}
	groupCols := make([]int, len(groupVars))
	aggAttrs := make([]relation.Attr, len(groupVars))
	for i, v := range groupVars {
		c := joinCol(v)
		if c < 0 {
			return nil, errGroupVar(v, l.Name+"⋈*"+r.Name)
		}
		groupCols[i] = c
		aggAttrs[i] = outAttrs[c]
	}

	build, probe := l, r
	buildCols, probeCols := lCols, rCols
	buildIsLeft := true
	if r.Heap.NumTuples() < l.Heap.NumTuples() {
		build, probe = r, l
		buildCols, probeCols = rCols, lCols
		buildIsLeft = false
	}
	return e.fusedColBatch(ctx, l, r, build, probe, buildCols, probeCols, rExtra, groupCols, aggAttrs, buildIsLeft, st)
}

// errGroupVar builds the standard missing-group-variable error.
func errGroupVar(v, in string) error {
	return &groupVarError{v: v, in: in}
}

type groupVarError struct{ v, in string }

func (e *groupVarError) Error() string {
	return "exec: group variable " + e.v + " not in " + e.in
}

// tryFuse recognizes GroupBy(Join(..)) and runs the fused operator,
// returning a nil table when the pattern does not apply. The returned
// duration and stats sum the inclusive wall time and IO of the child
// subtrees it executed, for exclusive accounting in exec. Fused
// grandchildren record their spans at depth+1: the elided Join node gets
// no span of its own, so the trace tree stays contiguous. bctx is the
// operator-body context from execOp (cachedOutCtxKey-marked when the cache keeps its output) and
// is used only for the calls that produce this node's output; child
// subtrees and the intermediate Grace join run under the plain ctx.
func (e *Engine) tryFuse(ctx, bctx context.Context, p *plan.Node, env *runEnv, depth int) (*Table, time.Duration, storage.Stats, error) {
	if !e.FuseJoinGroupBy || p.Op != plan.OpGroupBy || p.Left == nil || p.Left.Op != plan.OpJoin {
		return nil, 0, storage.Stats{}, nil
	}
	st := env.st
	join := p.Left
	l, lWall, lIO, err := e.exec(ctx, join.Left, env, depth+1)
	if err != nil {
		return nil, lWall, lIO, err
	}
	r, rWall, rIO, err := e.exec(ctx, join.Right, env, depth+1)
	childWall := lWall + rWall
	childIO := lIO.Add(rIO)
	if err != nil {
		l.Drop()
		return nil, childWall, childIO, err
	}
	// Very large builds go through the materializing Grace path instead.
	smaller := l.Heap.NumTuples()
	if r.Heap.NumTuples() < smaller {
		smaller = r.Heap.NumTuples()
	}
	if smaller > e.maxBuild() {
		jt, err := e.hashJoin(ctx, l, r, st)
		dropInput(l)
		dropInput(r)
		if err != nil {
			return nil, childWall, childIO, err
		}
		out, err := e.hashGroupBy(bctx, jt, p.GroupVars, st)
		dropInput(jt)
		return out, childWall, childIO, err
	}
	st.Operators++ // the caller counted the GroupBy; count the fused join
	out, err := e.fusedJoinGroupBy(bctx, l, r, p.GroupVars, st)
	dropInput(l)
	dropInput(r)
	return out, childWall, childIO, err
}
