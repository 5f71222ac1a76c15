package sqlx

import (
	"fmt"
	"strings"

	"mpf/internal/exec"
)

// spanNode is one reconstructed node of the EXPLAIN ANALYZE tree.
type spanNode struct {
	span     exec.Span
	children []*spanNode
}

// buildSpanTree reconstructs the operator tree from a trace. Spans are
// recorded in completion (post-order) order with their depth, so a node's
// children are exactly the stacked spans one level deeper that completed
// before it: pop them, attach in recorded order, push the node. Multiple
// roots cannot occur for a valid plan but are tolerated (all returned).
func buildSpanTree(trace []exec.Span) []*spanNode {
	var stack []*spanNode
	for _, sp := range trace {
		n := &spanNode{span: sp}
		for len(stack) > 0 && stack[len(stack)-1].span.Depth > sp.Depth {
			child := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n.children = append([]*spanNode{child}, n.children...)
		}
		stack = append(stack, n)
	}
	return stack
}

// RenderAnalyze formats a query's actuals in EXPLAIN ANALYZE style: the
// operator tree with per-node exclusive wall time, output rows, and
// physical IO, followed by run totals.
func RenderAnalyze(st exec.RunStats) string {
	var b strings.Builder
	if st.Planner != "" {
		fmt.Fprintf(&b, "Planner: %s", st.Planner)
		if st.PlanCacheHit {
			b.WriteString(" (plan cache hit)")
		}
		b.WriteString("\n")
	}
	for _, root := range buildSpanTree(st.Trace) {
		renderSpanNode(&b, root, 0)
	}
	// Morsel busy time is measured inside each task and attributed to the
	// operator kind that submitted it, so these lines decompose where the
	// workers actually spent their time — span wall times above remain the
	// submitting operator's own wall clock.
	for _, m := range st.Morsels {
		fmt.Fprintf(&b, "Morsels: %s count=%d busy=%v\n", m.Kind, m.Count, m.Busy)
	}
	fmt.Fprintf(&b, "Total: wall=%v io=%dr/%dw/%dh rows=%d temp_tuples=%d operators=%d batches=%d",
		st.Wall, st.IO.Reads, st.IO.Writes, st.IO.Hits,
		st.RowsOut, st.TempTuples, st.Operators, st.Batches)
	if st.HotKeyFallbacks > 0 {
		fmt.Fprintf(&b, " hot_key_fallbacks=%d", st.HotKeyFallbacks)
	}
	if st.IO.Retries > 0 {
		fmt.Fprintf(&b, " io_retries=%d", st.IO.Retries)
	}
	if st.IO.TransientFaults > 0 {
		fmt.Fprintf(&b, " transient_faults=%d", st.IO.TransientFaults)
	}
	if st.IO.PermanentFaults > 0 {
		fmt.Fprintf(&b, " permanent_faults=%d", st.IO.PermanentFaults)
	}
	if st.IO.ChecksumFailures > 0 {
		fmt.Fprintf(&b, " checksum_failures=%d", st.IO.ChecksumFailures)
	}
	b.WriteString("\n")
	return b.String()
}

// renderSpanNode prints one node and its subtree at the given indent.
func renderSpanNode(b *strings.Builder, n *spanNode, indent int) {
	sp := n.span
	prefix := strings.Repeat("  ", indent)
	if indent > 0 {
		prefix += "-> "
	}
	fmt.Fprintf(b, "%s%s (actual time=%v rows=%d io=%dr/%dw/%dh span=[%v..%v])\n",
		prefix, sp.Desc, sp.Wall, sp.Rows,
		sp.IO.Reads, sp.IO.Writes, sp.IO.Hits,
		sp.Start.Round(0), sp.Stop.Round(0))
	for _, c := range n.children {
		renderSpanNode(b, c, indent+1)
	}
}
