// Package trace renders the final overlay of a protocol execution as
// Graphviz DOT: potential edges gray, locked connections bold and
// labelled with their eq.-9 weights (cmd/overlaysim -dot). The
// execution itself — the message-sequence log, NDJSON, Chrome trace
// and span tree — is recorded and rendered by package obs.
package trace

import (
	"fmt"
	"io"
	"strings"

	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// WriteDOT renders the overlay and its matching as Graphviz DOT:
// every potential edge in light gray, locked connections bold with
// their eq.-9 weight as label, nodes annotated "id (ci/bi)".
func WriteDOT(w io.Writer, s *pref.System, m *matching.Matching) error {
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
