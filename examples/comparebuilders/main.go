// Comparebuilders races the paper's DAG-construction algorithms on one
// large synthetic basic block (tomcatv's 326-instruction block by
// default) and prints construction time, arc counts and transitive-arc
// census for each — Section 6's comparison at single-block scale.
//
//	go run ./examples/comparebuilders [-bench name] [-n blockIndex]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/synth"
)

func main() {
	bench := flag.String("bench", "tomcatv", "synthetic benchmark")
	idx := flag.Int("n", 0, "block index (0 = the largest block)")
	flag.Parse()

	p, ok := synth.ByName(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q", *bench)
	}
	blocks := p.Generate()
	if *idx < 0 || *idx >= len(blocks) {
		log.Fatalf("block index out of range (0..%d)", len(blocks)-1)
	}
	b := blocks[*idx]
	m := machine.Pipe1()
	fmt.Printf("benchmark %s, block %q: %d instructions\n\n", *bench, b.Name, b.Len())
	fmt.Printf("%-14s %10s %8s %10s %12s\n", "builder", "time", "arcs", "transitive", "max children")
	for _, bld := range dag.AllBuilders() {
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(b.Insts)
		start := time.Now()
		d := bld.Build(b, m, rt)
		dt := time.Since(start)
		fmt.Printf("%-14s %10s %8d %10d %12d\n",
			bld.Name(), dt.Round(time.Microsecond), d.NumArcs, d.TransitiveArcs(), d.Statistics().ChildrenMax)
	}
	fmt.Println("\nThe n² builders retain every transitive arc (quadratic work);")
	fmt.Println("table building keeps only the most recent def/use arcs; the")
	fmt.Println("avoiders (landskov, tableb-bitmap) insert none at all.")
}
