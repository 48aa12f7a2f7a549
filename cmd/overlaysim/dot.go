package main

import (
	"fmt"
	"io"
	"strings"

	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// writeDOT renders the final overlay of a run as Graphviz DOT (-dot):
// every potential edge in light gray, locked connections bold with
// their eq.-9 weight as label, nodes annotated "id (ci/bi)".
func writeDOT(w io.Writer, s *pref.System, m *matching.Matching) error {
	var b strings.Builder
	b.WriteString("graph overlay {\n")
	b.WriteString("  layout=neato;\n  node [shape=circle, fontsize=10];\n")
	g := s.Graph()
	for i := 0; i < g.NumNodes(); i++ {
		fmt.Fprintf(&b, "  %d [label=\"%d (%d/%d)\"];\n", i, i, m.DegreeOf(i), s.Quota(i))
	}
	for _, e := range g.Edges() {
		if m.Has(e.U, e.V) {
			fmt.Fprintf(&b, "  %d -- %d [penwidth=2.2, label=\"%.3f\", fontsize=8];\n",
				e.U, e.V, satisfaction.EdgeWeight(s, e))
		} else {
			fmt.Fprintf(&b, "  %d -- %d [color=gray80];\n", e.U, e.V)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
