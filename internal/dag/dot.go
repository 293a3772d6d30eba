package dag

import (
	"fmt"
	"io"
)

// WriteDOT renders the DAG in Graphviz dot format: nodes labeled with
// their instruction text, arcs labeled kind/delay, transitive arcs
// drawn dashed. Handy for papers, debugging and teaching — `dagstat
// -dot` emits it from the command line.
func (d *DAG) WriteDOT(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=monospace];\n", name); err != nil {
		return err
	}
	for i := range d.Nodes {
		if _, err := fmt.Fprintf(w, "  n%d [label=\"%d: %s\"];\n",
			i, i, d.Nodes[i].Inst.String()); err != nil {
			return err
		}
	}
	reach := d.Reachability()
	c := d.Freeze()
	for i := int32(0); int(i) < len(d.Nodes); i++ {
		span := c.succs(i)
		for _, p := range span {
			style := ""
			if transitive(span, p.Node(), reach) {
				style = ", style=dashed"
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=\"%s/%d\"%s];\n",
				i, p.Node(), p.Kind(), p.Delay(), style); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
