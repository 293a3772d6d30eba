package dag

// Stats are the per-DAG structural statistics of Tables 4 and 5.
type Stats struct {
	Nodes       int
	Arcs        int
	ChildrenMax int // most children on any node
	ParentsMax  int // most parents on any node
	Roots       int
	Leaves      int
	ByKind      [3]int // arc counts indexed by DepKind
	DelaySum    int64  // total arc delay (for average weights)
}

// Statistics computes structural statistics from the arc lists.
func (d *DAG) Statistics() Stats {
	s := Stats{Nodes: d.Len(), Arcs: d.NumArcs}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if c := len(n.Succs); c > s.ChildrenMax {
			s.ChildrenMax = c
		}
		if len(n.Succs) == 0 {
			s.Leaves++
		}
		for _, arc := range n.Succs {
			s.ByKind[arc.Kind]++
			s.DelaySum += int64(arc.Delay)
		}
	}
	for _, p := range d.numParents() {
		if p > s.ParentsMax {
			s.ParentsMax = p
		}
		if p == 0 {
			s.Roots++
		}
	}
	return s
}

// ChildrenAvg returns arcs per node.
func (s Stats) ChildrenAvg() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Arcs) / float64(s.Nodes)
}

// DelayAvg returns the mean arc delay.
func (s Stats) DelayAvg() float64 {
	if s.Arcs == 0 {
		return 0
	}
	return float64(s.DelaySum) / float64(s.Arcs)
}
