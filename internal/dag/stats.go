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

// Statistics computes structural statistics from the frozen spans:
// a node's child and parent counts are its span widths.
func (d *DAG) Statistics() Stats {
	s := Stats{Nodes: d.Len(), Arcs: d.NumArcs}
	c := d.Freeze()
	for i := int32(0); int(i) < len(d.Nodes); i++ {
		if k := int(c.NumSuccs(i)); k > s.ChildrenMax {
			s.ChildrenMax = k
		} else if k == 0 {
			s.Leaves++
		}
		if p := int(c.NumPreds(i)); p > s.ParentsMax {
			s.ParentsMax = p
		} else if p == 0 {
			s.Roots++
		}
	}
	for _, p := range c.PackedSuccArcs() {
		s.ByKind[p.Kind()]++
		s.DelaySum += int64(p.Delay())
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
