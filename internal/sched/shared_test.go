package sched

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"daginsched/internal/dag"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/testgen"
)

// readerResults is everything one reader computes from a shared DAG.
type readerResults struct {
	runs       []*Result
	annot      *heur.Annot
	stats      dag.Stats
	transitive int
	dot        []byte
}

// readAll runs every read-only consumer of a built DAG: each Table 2
// algorithm, every static heuristic pass, the structural statistics,
// the transitive-arc count and the dot rendering.
func readAll(d *dag.DAG, m *machine.Model) readerResults {
	var r readerResults
	for _, al := range Table2() {
		r.runs = append(r.runs, al.Run(d, m))
	}
	r.annot = heur.New(d, m).ComputeAll()
	r.stats = d.Statistics()
	r.transitive = d.TransitiveArcs()
	var buf bytes.Buffer
	d.WriteDOT(&buf, "shared") // a bytes.Buffer write cannot fail
	r.dot = buf.Bytes()
	return r
}

// TestSharedDAGConcurrentReaders shares one built DAG per builder
// across four goroutines that never call Freeze: a built DAG is
// read-only, so every reader's results must equal a serial run's, and
// the race detector must see no write.
func TestSharedDAGConcurrentReaders(t *testing.T) {
	const readers = 4
	m := machine.Pipe1()
	for _, bld := range dag.AllBuilders() {
		d := buildDAG(t, bld, m, testgen.Block(31, 60))
		got := make([]readerResults, readers)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = readAll(d, m)
			}()
		}
		wg.Wait()
		want := readAll(d, m)
		for g, r := range got {
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("%s: reader %d disagrees with the serial run", bld.Name(), g)
			}
		}
	}
}
