package dag

import (
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/isa"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/testgen"
)

func buildOn(t *testing.T, bld Builder, insts []isa.Inst) *DAG {
	t.Helper()
	b := &block.Block{Name: "t", Insts: insts}
	for i := range b.Insts {
		b.Insts[i].Index = i
	}
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(b.Insts)
	d := bld.Build(b, machine.Pipe1(), rt)
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: invalid DAG: %v", bld.Name(), err)
	}
	return d
}

// figure1 is the paper's Figure 1 block:
//
//	1: DIVF R1,R2,R3  (R3 = R1/R2, 20 cycles)
//	2: ADDF R4,R5,R1  (R1 = R4+R5,  4 cycles)
//	3: ADDF R1,R3,R6  (R6 = R1+R3,  4 cycles)
func figure1() []isa.Inst {
	return []isa.Inst{
		isa.Fp3(isa.FDIVS, isa.F(1), isa.F(2), isa.F(3)),
		isa.Fp3(isa.FADDS, isa.F(4), isa.F(5), isa.F(1)),
		isa.Fp3(isa.FADDS, isa.F(1), isa.F(3), isa.F(6)),
	}
}

func findArc(d *DAG, from, to int32) (Arc, bool) {
	for _, a := range d.Nodes[from].Succs {
		if a.To == to {
			return a, true
		}
	}
	return Arc{}, false
}

func TestFigure1ArcsRetained(t *testing.T) {
	// The table-building methods and n² "will retain this kind of arc":
	// the transitive RAW 1→3 with the 20-cycle delay.
	for _, bld := range []Builder{N2Forward{}, TableForward{}, TableBackward{}} {
		d := buildOn(t, bld, figure1())
		war, ok := findArc(d, 0, 1)
		if !ok || war.Kind != WAR || war.Delay != 1 {
			t.Errorf("%s: arc 1->2 = %+v, want WAR delay 1", bld.Name(), war)
		}
		raw12, ok := findArc(d, 1, 2)
		if !ok || raw12.Kind != RAW || raw12.Delay != 4 {
			t.Errorf("%s: arc 2->3 = %+v, want RAW delay 4", bld.Name(), raw12)
		}
		raw02, ok := findArc(d, 0, 2)
		if !ok || raw02.Kind != RAW || raw02.Delay != 20 {
			t.Errorf("%s: transitive arc 1->3 = %+v ok=%v, want RAW delay 20",
				bld.Name(), raw02, ok)
		}
	}
}

func TestFigure1ArcsDroppedByAvoiders(t *testing.T) {
	// Landskov and the reachability-bit-map insertion drop the 1→3 arc —
	// losing the 20-cycle constraint, the paper's argument against them.
	for _, bld := range []Builder{Landskov{}, TableBackward{PreventTransitive: true}} {
		d := buildOn(t, bld, figure1())
		if _, ok := findArc(d, 0, 2); ok {
			t.Errorf("%s: transitive arc 1->3 should be absent", bld.Name())
		}
		if !d.Reachability()[0].Test(2) {
			t.Errorf("%s: ordering path 1=>3 must still exist", bld.Name())
		}
		if d.TransitiveArcs() != 0 {
			t.Errorf("%s: expected zero transitive arcs", bld.Name())
		}
	}
}

func TestSimpleChain(t *testing.T) {
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),
		isa.RIR(isa.ADD, isa.O0, 1, isa.O1),
		isa.RIR(isa.ADD, isa.O1, 1, isa.O2),
	}
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, insts)
		if d.NumArcs != 2 {
			t.Errorf("%s: chain arcs = %d, want 2", bld.Name(), d.NumArcs)
		}
	}
}

func TestIndependentInstructionsFormForest(t *testing.T) {
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),
		isa.MovI(2, isa.O1),
		isa.MovI(3, isa.O2),
	}
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, insts)
		if d.NumArcs != 0 {
			t.Errorf("%s: independent block has %d arcs", bld.Name(), d.NumArcs)
		}
	}
}

func TestWAWOnlyWhenNoInterveningUse(t *testing.T) {
	// def R, use R, def R: the second def takes a WAR from the use, not
	// a WAW from the first def (the paper's pseudocode guard).
	insts := []isa.Inst{
		isa.MovI(1, isa.O0),
		isa.Store(isa.ST, isa.O0, isa.FP, -4),
		isa.MovI(2, isa.O0),
	}
	for _, bld := range []Builder{TableForward{}, TableBackward{}} {
		d := buildOn(t, bld, insts)
		if _, ok := findArc(d, 0, 2); ok {
			t.Errorf("%s: WAW 0->2 should be covered by RAW+WAR chain", bld.Name())
		}
		if a, ok := findArc(d, 1, 2); !ok || a.Kind != WAR {
			t.Errorf("%s: expected WAR 1->2, got %+v ok=%v", bld.Name(), a, ok)
		}
	}
	// The n² method adds the transitive WAW 0->2 too.
	d := buildOn(t, N2Forward{}, insts)
	if a, ok := findArc(d, 0, 2); !ok || a.Kind != WAW {
		t.Errorf("n2f: expected WAW 0->2, got %+v ok=%v", a, ok)
	}
}

func TestWAWWhenNoUse(t *testing.T) {
	insts := []isa.Inst{
		isa.Fp2(isa.FMOVS, isa.F(2), isa.F0),
		isa.Fp2(isa.FMOVS, isa.F(4), isa.F0),
	}
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, insts)
		a, ok := findArc(d, 0, 1)
		if !ok || a.Kind != WAW {
			t.Errorf("%s: expected WAW 0->1, got %+v ok=%v", bld.Name(), a, ok)
		}
	}
}

func TestSelfDependenceNeverCreatesArc(t *testing.T) {
	insts := []isa.Inst{isa.RIR(isa.ADD, isa.O0, 1, isa.O0)}
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, insts)
		if d.NumArcs != 0 {
			t.Errorf("%s: self-dependence created arcs", bld.Name())
		}
	}
}

func TestPairSkewOnArcDelay(t *testing.T) {
	// lddf defines %f2 and %f3; a consumer of %f3 waits one extra cycle.
	insts := []isa.Inst{
		isa.Load(isa.LDDF, isa.FP, -16, isa.F(2)),
		isa.Fp2(isa.FMOVS, isa.F(2), isa.F(8)),
		isa.Fp2(isa.FMOVS, isa.F(3), isa.F(9)),
	}
	for _, bld := range []Builder{N2Forward{}, TableForward{}, TableBackward{}} {
		d := buildOn(t, bld, insts)
		even, ok1 := findArc(d, 0, 1)
		odd, ok2 := findArc(d, 0, 2)
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing pair arcs", bld.Name())
		}
		if odd.Delay != even.Delay+1 {
			t.Errorf("%s: pair delays even=%d odd=%d, want odd=even+1",
				bld.Name(), even.Delay, odd.Delay)
		}
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	// Same base, different offsets: no arc. Same expression: RAW.
	insts := []isa.Inst{
		isa.Store(isa.ST, isa.O0, isa.FP, -4),
		isa.Store(isa.ST, isa.O1, isa.FP, -8),
		isa.Load(isa.LD, isa.FP, -4, isa.O2),
	}
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, insts)
		if _, ok := findArc(d, 0, 1); ok {
			t.Errorf("%s: disjoint stores must not conflict", bld.Name())
		}
		if a, ok := findArc(d, 0, 2); !ok || a.Kind != RAW {
			t.Errorf("%s: store/load same slot must be RAW, got ok=%v", bld.Name(), ok)
		}
		if _, ok := findArc(d, 1, 2); ok {
			t.Errorf("%s: [-8] store vs [-4] load must not conflict", bld.Name())
		}
	}
}

func TestArcDedupeKeepsMaxDelay(t *testing.T) {
	// faddd %f0,%f2,%f4 defines both %f4 (delay 4) and %f5 (delay 5 with
	// pair skew); fmuld %f4,... consumes both halves. One arc must
	// remain, carrying the 5-cycle max.
	insts := []isa.Inst{
		isa.Fp3(isa.FADDD, isa.F0, isa.F(2), isa.F(4)),
		isa.Fp3(isa.FMULD, isa.F(4), isa.F(6), isa.F(8)),
	}
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, insts)
		if len(d.Nodes[0].Succs) != 1 {
			t.Fatalf("%s: got %d arcs, want 1 deduped arc", bld.Name(), len(d.Nodes[0].Succs))
		}
		a := d.Nodes[0].Succs[0]
		if a.Kind != RAW || a.Delay != 5 {
			t.Errorf("%s: deduped arc = %+v, want RAW delay 5", bld.Name(), a)
		}
	}
}

// conflictPairs brute-forces all dependent pairs (j < i) of a block.
func conflictPairs(insts []isa.Inst) [][2]int32 {
	rt := resource.NewTable(resource.MemExprModel)
	rt.PrepareBlock(insts)
	ids := func(in *isa.Inst, rs []isa.ResRef) map[resource.ID]bool {
		m := map[resource.ID]bool{}
		for _, r := range rs {
			m[rt.RefID(in, r)] = true
		}
		return m
	}
	uses := make([]map[resource.ID]bool, len(insts))
	defs := make([]map[resource.ID]bool, len(insts))
	for i := range insts {
		uses[i] = ids(&insts[i], insts[i].Uses())
		defs[i] = ids(&insts[i], insts[i].Defs())
	}
	intersects := func(a, b map[resource.ID]bool) bool {
		for k := range a {
			if b[k] {
				return true
			}
		}
		return false
	}
	var out [][2]int32
	for i := 1; i < len(insts); i++ {
		for j := 0; j < i; j++ {
			if intersects(defs[j], uses[i]) || intersects(uses[j], defs[i]) ||
				intersects(defs[j], defs[i]) {
				out = append(out, [2]int32{int32(j), int32(i)})
			}
		}
	}
	return out
}

// TestAllBuildersPreserveDependences is the core soundness property:
// every dependent pair — including pairs the builders cover only
// transitively — must be ordered by a DAG path, under every builder.
func TestAllBuildersPreserveDependences(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		insts := testgen.Block(seed, 25)
		pairs := conflictPairs(insts)
		for _, bld := range AllBuilders() {
			d := buildOn(t, bld, insts)
			reach := d.Reachability()
			for _, p := range pairs {
				if !reach[p[0]].Test(int(p[1])) {
					t.Fatalf("%s seed %d: dependent pair %d->%d unordered\n%v %v",
						bld.Name(), seed, p[0], p[1],
						insts[p[0]].String(), insts[p[1]].String())
				}
			}
		}
	}
}

// longestDelayFrom computes max path delay from node s to every node.
func longestDelayFrom(d *DAG, s int32) []int32 {
	dist := make([]int32, len(d.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	for i := int(s); i < len(d.Nodes); i++ {
		if dist[i] < 0 {
			continue
		}
		for _, a := range d.Nodes[i].Succs {
			if nd := dist[i] + a.Delay; nd > dist[a.To] {
				dist[a.To] = nd
			}
		}
	}
	return dist
}

// TestFullBuildersPreserveTiming: for the three Section 6 algorithms,
// every adjacent RAW dependence must be enforced with its full machine
// delay along some DAG path (the property Figure 1 shows the
// transitive-arc avoiders violating).
func TestFullBuildersPreserveTiming(t *testing.T) {
	m := machine.Pipe1()
	for seed := int64(100); seed < 120; seed++ {
		insts := testgen.Block(seed, 20)
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(insts)
		// Adjacent RAW pairs: (lastDef(R), i) for every use of R.
		type rawReq struct {
			j, i  int32
			delay int32
		}
		var reqs []rawReq
		lastDef := map[resource.ID]int32{}
		lastOdd := map[resource.ID]bool{}
		for i := range insts {
			for _, u := range insts[i].Uses() {
				id := rt.RefID(&insts[i], u)
				if j, ok := lastDef[id]; ok {
					dl := m.RAWDelay(&insts[j], lastOdd[id], &insts[i], u.Slot)
					reqs = append(reqs, rawReq{j, int32(i), int32(dl)})
				}
			}
			for _, def := range insts[i].Defs() {
				id := rt.RefID(&insts[i], def)
				lastDef[id] = int32(i)
				lastOdd[id] = def.PairSecond
			}
		}
		for _, bld := range []Builder{N2Forward{}, TableForward{}, TableBackward{}} {
			d := buildOn(t, bld, insts)
			for _, r := range reqs {
				if r.j == r.i {
					continue
				}
				dist := longestDelayFrom(d, r.j)
				if dist[r.i] < r.delay {
					t.Fatalf("%s seed %d: RAW %d->%d needs %d cycles, path gives %d",
						bld.Name(), seed, r.j, r.i, r.delay, dist[r.i])
				}
			}
		}
	}
}

// TestBuildersAgreeOnReachability: all builders must produce the same
// partial order (transitive closure), even though their arc sets differ.
func TestBuildersAgreeOnReachability(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		insts := testgen.Block(seed, 18)
		ref := buildOn(t, N2Forward{}, insts)
		refReach := ref.Reachability()
		for _, bld := range AllBuilders()[1:] {
			d := buildOn(t, bld, insts)
			reach := d.Reachability()
			for i := range reach {
				if !reach[i].Equal(refReach[i]) {
					t.Fatalf("%s seed %d: node %d reach %v, n2f %v",
						bld.Name(), seed, i, reach[i], refReach[i])
				}
			}
		}
	}
}

func TestN2HasMostArcs(t *testing.T) {
	insts := testgen.Block(7, 40)
	n2 := buildOn(t, N2Forward{}, insts)
	tf := buildOn(t, TableForward{}, insts)
	lk := buildOn(t, Landskov{}, insts)
	if n2.NumArcs < tf.NumArcs {
		t.Errorf("n2 (%d arcs) should have at least as many arcs as table (%d)",
			n2.NumArcs, tf.NumArcs)
	}
	if tf.NumArcs < lk.NumArcs {
		t.Errorf("table (%d arcs) should have at least as many arcs as landskov (%d)",
			tf.NumArcs, lk.NumArcs)
	}
	if lk.TransitiveArcs() != 0 {
		t.Error("landskov must have zero transitive arcs")
	}
}

func TestBitmapBuilderKeepsReach(t *testing.T) {
	insts := testgen.Block(9, 15)
	d := buildOn(t, TableBackward{PreventTransitive: true}, insts)
	if d.Reach == nil {
		t.Fatal("bitmap builder should retain reachability maps")
	}
	// Maps must agree with a from-scratch recomputation.
	kept := d.Reach
	d.Reach = nil
	fresh := d.Reachability()
	for i := range kept {
		if !kept[i].Equal(fresh[i]) {
			t.Fatalf("node %d: builder reach %v, recomputed %v", i, kept[i], fresh[i])
		}
	}
}

type recordingObserver struct {
	started bool
	order   []int32
}

func (r *recordingObserver) Start(d *DAG)             { r.started = true }
func (r *recordingObserver) NodeDone(d *DAG, i int32) { r.order = append(r.order, i) }

func TestBackwardObserverOrder(t *testing.T) {
	insts := testgen.Block(3, 10)
	obs := &recordingObserver{}
	buildOn(t, TableBackward{Observer: obs}, insts)
	if !obs.started {
		t.Fatal("observer never started")
	}
	if len(obs.order) != len(insts) {
		t.Fatalf("observer saw %d nodes, want %d", len(obs.order), len(insts))
	}
	for k, i := range obs.order {
		if i != int32(len(insts)-1-k) {
			t.Fatalf("observer order %v not reverse program order", obs.order)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"n2f", "tablef", "tableb", "landskov", "tableb-bitmap"} {
		b, ok := ByName(name)
		if !ok || b.Name() != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("quantum"); ok {
		t.Error("unknown builder resolved")
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "f" || Backward.String() != "b" {
		t.Error("direction codes wrong")
	}
	if (TableBackward{}).Direction() != Backward || (TableForward{}).Direction() != Forward {
		t.Error("builder directions wrong")
	}
}

func TestDepKindString(t *testing.T) {
	if RAW.String() != "RAW" || WAR.String() != "WAR" || WAW.String() != "WAW" {
		t.Error("DepKind names wrong")
	}
}

func TestEmptyBlock(t *testing.T) {
	for _, bld := range AllBuilders() {
		d := buildOn(t, bld, nil)
		if d.Len() != 0 || d.NumArcs != 0 {
			t.Errorf("%s: empty block mishandled", bld.Name())
		}
	}
}
