package exec

import (
	"context"
	"slices"
	"time"

	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/storage"
)

// fusedJoinGroupBy evaluates GroupBy(Join(l, r)) without materializing
// the join: probe-side matches feed the aggregation hash table directly.
// This is the classic pipelined join+aggregate fusion; it is gated behind
// Engine.FuseJoinGroupBy because the default materializing operators are
// what the paper's IO-based cost model describes. A non-nil stage
// pipelines the probe input (see tryFuse): the probe's rows are its
// heap's through stage.
func (e *Engine) fusedJoinGroupBy(ctx context.Context, l, r *Table, stage *pipeStage, groupVars []string, st *RunStats) (*Table, error) {
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
	buildIsLeft := buildLeft(l, r)
	if !buildIsLeft {
		build, probe = r, l
		buildCols, probeCols = rCols, lCols
	}
	return e.fusedColBatch(ctx, l, r, build, probe, stage, buildCols, probeCols, rExtra, groupCols, aggAttrs, buildIsLeft, st)
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
// grandchildren record their spans at depth+1: the fused Join node gets
// no span of its own, so the trace tree stays contiguous. bctx is the
// operator-body context from execOp (cachedOutCtxKey-marked when the cache keeps its output) and
// is used only for the calls that produce this node's output; child
// subtrees and the intermediate Grace join run under the plain ctx.
//
// A join input that is a Select or an in-memory-build Join is opened as
// a one-stage probe pipeline (openFuseInput). It stays one — its output
// is never written, and its stage runs inside the fused probe's leaves —
// when the fused join probes it: when the other input is smaller than
// its streamed heap, which then would have been the fused probe anyway,
// and fits the in-memory build. Otherwise it is materialized as the
// operator would have been.
func (e *Engine) tryFuse(ctx, bctx context.Context, p *plan.Node, env *runEnv, depth int) (*Table, time.Duration, storage.Stats, error) {
	if !e.FuseJoinGroupBy || p.Op != plan.OpGroupBy || p.Left == nil || p.Left.Op != plan.OpJoin {
		return nil, 0, storage.Stats{}, nil
	}
	st := env.st
	join := p.Left
	l, err := e.openFuseInput(ctx, join.Left, env, depth+1)
	if err != nil {
		unrecord(env, l)
		return nil, l.wall, l.io, err
	}
	r, err := e.openFuseInput(ctx, join.Right, env, depth+1)
	if err != nil {
		unrecord(env, l, r)
		l.drop()
		return nil, l.wall + r.wall, l.io.Add(r.io), err
	}
	fail := func(err error) (*Table, time.Duration, storage.Stats, error) {
		unrecord(env, l, r)
		l.drop()
		r.drop()
		return nil, l.wall + r.wall, l.io.Add(r.io), err
	}
	// A pipeline may only be the probe, and only of a build that fits in
	// memory: materialize the build while it is one, then the probe if
	// the build is too large, and decide again on the exact counts. A
	// pipeline's streamed heap's tuple count stands for its own.
	var build, probe *fuseInput
	for {
		if build, probe = r, l; buildLeft(l.t, r.t) {
			build, probe = l, r
		}
		next := build
		if build.stage == nil {
			if probe.stage == nil || build.t.Heap.NumTuples() <= e.maxBuild() {
				break
			}
			next = probe
		}
		if err := e.materialize(ctx, next, env); err != nil {
			return fail(err)
		}
	}
	// Very large builds go through the materializing Grace path instead.
	if build.t.Heap.NumTuples() > e.maxBuild() {
		jt, err := e.hashJoin(ctx, l.t, r.t, st)
		l.drop()
		r.drop()
		if err != nil {
			return nil, l.wall + r.wall, l.io.Add(r.io), err
		}
		out, err := e.hashGroupBy(bctx, jt, p.GroupVars, st)
		dropInput(jt)
		return out, l.wall + r.wall, l.io.Add(r.io), err
	}
	st.Operators++ // the caller counted the GroupBy; count the fused join
	out, err := e.fusedJoinGroupBy(bctx, l.t, r.t, probe.stage, p.GroupVars, st)
	if err != nil {
		unrecord(env, l, r)
	} else if probe.stage != nil {
		probe.record(env, false)
	}
	l.drop()
	r.drop()
	return out, l.wall + r.wall, l.io.Add(r.io), err
}

// fuseInput is one input of a fused GroupBy(Join): a materialized table,
// or a one-stage probe pipeline, opened but not run.
type fuseInput struct {
	// t is the input; for a pipeline, a table of the stage's output
	// schema over the streamed heap src.
	t     *Table
	stage *pipeStage
	src   *Table
	// The input's node, where its span goes, and when it was opened.
	node  *plan.Node
	depth int
	start time.Time
	// span is the input's slot in the trace, reserved when it was opened
	// so the trace stays in post-order (-1 for none); pending marks a
	// slot whose pipeline has not run.
	span    int
	pending bool
	// wall and io are the input's inclusive wall time and IO so far —
	// for a pipeline, of its children and its build — and childWall and
	// childIO its children's alone.
	wall      time.Duration
	io        storage.Stats
	childWall time.Duration
	childIO   storage.Stats
}

// openFuseInput executes plan node p as an input of a fused join. A
// Select, and a Join whose smaller input fits the in-memory build, are
// opened as a pipeline: their children are executed and a Join's build
// hashed, but their own output is not produced. Any other node is
// executed.
func (e *Engine) openFuseInput(ctx context.Context, p *plan.Node, env *runEnv, depth int) (*fuseInput, error) {
	in := &fuseInput{node: p, depth: depth, start: time.Now(), span: -1}
	if p.Op != plan.OpSelect && p.Op != plan.OpJoin {
		var err error
		in.t, in.wall, in.io, err = e.exec(ctx, p, env, depth)
		return in, err
	}
	if err := ctx.Err(); err != nil {
		return in, err
	}
	ioBefore := e.Pool.Stats()
	env.st.Operators++
	err := e.openStage(ctx, in, env)
	in.wall = time.Since(in.start)
	in.io = e.Pool.Stats().Sub(ioBefore)
	if err == nil {
		in.record(env, in.stage != nil)
	}
	return in, err
}

// openStage executes the children of a Select or Join input and makes
// its stage, or — a Join too large to build in memory — runs the join.
func (e *Engine) openStage(ctx context.Context, in *fuseInput, env *runEnv) error {
	p, st := in.node, env.st
	l, lWall, lIO, err := e.exec(ctx, p.Left, env, in.depth+1)
	in.childWall, in.childIO = lWall, lIO
	if err != nil {
		return err
	}
	if p.Op == plan.OpSelect {
		s, err := newSelectStage(e.Sr, l, p.Pred)
		if err != nil {
			dropInput(l)
			return err
		}
		in.stage, in.src = s, l
		in.t = &Table{Name: "σ(" + l.Name + ")", Attrs: l.Attrs, Heap: l.Heap}
		return nil
	}
	r, rWall, rIO, err := e.exec(ctx, p.Right, env, in.depth+1)
	in.childWall, in.childIO = lWall+rWall, lIO.Add(rIO)
	if err != nil {
		dropInput(l)
		return err
	}
	lCols, rCols, rExtra, outAttrs, err := joinSchema(l, r)
	if err == nil && min(l.Heap.NumTuples(), r.Heap.NumTuples()) > e.maxBuild() {
		in.t, err = e.hashJoin(ctx, l, r, st)
		dropInput(l)
		dropInput(r)
		return err
	}
	var s *pipeStage
	var stream *Table
	if err == nil {
		s, stream, err = e.newProbeStage(ctx, l, r, lCols, rCols, rExtra, st)
	}
	if err != nil {
		dropInput(l)
		dropInput(r)
		return err
	}
	if stream == l {
		dropInput(r)
	} else {
		dropInput(l)
	}
	in.stage, in.src = s, stream
	in.t = &Table{Name: "(" + l.Name + "⋈*" + r.Name + ")", Attrs: outAttrs, Heap: stream.Heap}
	return nil
}

// materialize runs a pipeline input into its operator's output temp —
// what executing the node would have written — and records the node's
// span. A materialized input is left as it is.
func (e *Engine) materialize(ctx context.Context, in *fuseInput, env *runEnv) error {
	if in.stage == nil {
		return nil
	}
	start, ioBefore := time.Now(), e.Pool.Stats()
	out, err := e.newOutTemp(ctx, in.t.Name, in.t.Attrs)
	if err == nil {
		if err = e.runPipe(ctx, opKind(in.node), in.src, in.stage, out, env.st); err == nil {
			err = env.st.overTemp()
		}
		if err != nil {
			out.Drop()
		}
	}
	dropInput(in.src)
	in.t, in.stage, in.src = nil, nil, nil
	in.wall += time.Since(start)
	in.io = in.io.Add(e.Pool.Stats().Sub(ioBefore))
	if err != nil {
		return err
	}
	in.t = out
	in.record(env, false)
	return nil
}

// record writes the input's trace span into its slot, reserving the
// slot on first call: a materialized input's rows are its table's; a
// pipeline's (" [pipelined]") are its stage's output, never written, and
// its own time and IO are those of opening it — the stage's work is the
// fused probe's. pending marks a pipeline not yet run.
func (in *fuseInput) record(env *runEnv, pending bool) {
	desc, rows := opDesc(in.node), int64(0)
	if in.stage != nil {
		desc += " [pipelined]"
		rows = in.stage.rows.Load()
	} else {
		rows = in.t.Heap.NumTuples()
	}
	n := len(env.st.Trace)
	env.addSpan(in.node, desc, in.depth, in.start, time.Now(), rows, in.wall-in.childWall, in.io.Sub(in.childIO))
	if in.span >= 0 {
		env.st.Trace[in.span] = env.st.Trace[n]
		env.st.Trace = env.st.Trace[:n]
	} else {
		in.span = n
	}
	in.pending = pending
}

// unrecord removes the spans of inputs whose pipeline never ran: a
// failed operator gets no span. Later slots go first, so earlier ones
// keep their index.
func unrecord(env *runEnv, ins ...*fuseInput) {
	slices.SortFunc(ins, func(a, b *fuseInput) int { return b.span - a.span })
	for _, in := range ins {
		if in.pending {
			env.st.Trace = slices.Delete(env.st.Trace, in.span, in.span+1)
			in.pending, in.span = false, -1
		}
	}
}

// drop releases the input: a pipeline's streamed heap, or the table.
func (in *fuseInput) drop() {
	if in.stage != nil {
		dropInput(in.src)
	} else {
		dropInput(in.t)
	}
}
