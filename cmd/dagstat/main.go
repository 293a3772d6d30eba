// Dagstat prints dependence-DAG structural statistics — arcs per block,
// children per instruction, transitive-arc census — for an assembly
// file or a synthetic benchmark, under each construction algorithm.
// It is the exploratory companion to cmd/schedbench: where schedbench
// reproduces the paper's tables, dagstat lets you inspect any input.
//
// Usage:
//
//	dagstat [-bench name | file.s] [-model name] [-builders list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/synth"
)

func main() {
	var (
		bench    = flag.String("bench", "", "synthetic benchmark name (grep, …, fpppp)")
		model    = flag.String("model", "pipe1", "machine model")
		builders = flag.String("builders", "n2f,tablef,tableb,landskov,tableb-bitmap",
			"comma-separated builder list")
		dot = flag.Bool("dot", false, "emit the first block's DAG in Graphviz dot (first builder only)")
	)
	flag.Parse()

	m, ok := machine.ByName(*model)
	if !ok {
		fail("unknown machine model %q", *model)
	}
	var blocks []*block.Block
	switch {
	case *bench != "":
		p, ok := synth.ByName(*bench)
		if !ok {
			fail("unknown benchmark %q", *bench)
		}
		blocks = p.Generate()
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		insts, err := asm.Parse(string(src))
		if err != nil {
			fail("%v", err)
		}
		blocks = block.Partition(insts)
	default:
		fail("need -bench or an assembly file")
	}

	if *dot {
		name := strings.SplitN(*builders, ",", 2)[0]
		bld, ok := dag.ByName(strings.TrimSpace(name))
		if !ok {
			fail("unknown builder %q", name)
		}
		rt := resource.NewTable(resource.MemExprModel)
		rt.PrepareBlock(blocks[0].Insts)
		d := bld.Build(blocks[0], m, rt)
		if err := d.WriteDOT(os.Stdout, blocks[0].Name); err != nil {
			fail("%v", err)
		}
		return
	}

	fmt.Printf("%-14s %8s %10s %10s %10s %10s %12s\n",
		"builder", "arcs", "arcs/blk", "child max", "child avg", "trans", "trans/arcs")
	fmt.Println(strings.Repeat("-", 80))
	for _, name := range strings.Split(*builders, ",") {
		bld, ok := dag.ByName(strings.TrimSpace(name))
		if !ok {
			fail("unknown builder %q", name)
		}
		var arcs, childMax, trans, insts int
		rt := resource.NewTable(resource.MemExprModel)
		for _, b := range blocks {
			rt.PrepareBlock(b.Insts)
			d := bld.Build(b, m, rt)
			arcs += d.NumArcs
			insts += b.Len()
			trans += d.TransitiveArcs()
			if c := d.Statistics().ChildrenMax; c > childMax {
				childMax = c
			}
		}
		ratio := 0.0
		if arcs > 0 {
			ratio = float64(trans) / float64(arcs)
		}
		fmt.Printf("%-14s %8d %10.2f %10d %10.2f %10d %12.3f\n",
			bld.Name(), arcs, float64(arcs)/float64(len(blocks)),
			childMax, float64(arcs)/float64(insts), trans, ratio)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dagstat: "+format+"\n", args...)
	os.Exit(2)
}
