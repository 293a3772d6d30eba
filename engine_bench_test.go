// Benchmarks for the batch scheduling engine (internal/engine): the
// steady-state zero-allocation property of the per-block pipeline, and
// serial-vs-parallel batch throughput.
//
// Run with: go test -bench Engine -benchmem
package daginsched_test

import (
	"fmt"
	"testing"

	"daginsched/internal/engine"
	"daginsched/internal/machine"
)

// BenchmarkEngineSteadyState is the tentpole allocation benchmark: a
// warmed single-worker engine re-running a full benchmark batch into a
// recycled BatchResult. -benchmem must report 0 allocs/op — an op here
// is an entire batch, so every per-block pipeline stage (prepare,
// build, heuristics, schedule, result collection) is allocation-free.
func BenchmarkEngineSteadyState(b *testing.B) {
	blocks := benchSets["nasa7"]
	e, err := engine.New(engine.Config{Workers: 1, Model: machine.Pipe1(), KeepOrders: true})
	if err != nil {
		b.Fatal(err)
	}
	res := new(engine.BatchResult)
	if _, err := e.RunInto(res, blocks); err != nil {
		b.Fatal(err) // warm-up: grow every arena
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunInto(res, blocks); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(len(blocks))/secs, "blocks/sec")
		b.ReportMetric(float64(res.Stats.Arcs)*float64(b.N)/secs, "arcs/sec")
	}
}

// BenchmarkEngineThroughput compares batch throughput as the worker
// pool widens. Speedup over the workers=1 row is hardware-dependent:
// it tracks the physical core count, so a single-core container shows
// none while an 8-core machine approaches 8 worker-pool scaling.
func BenchmarkEngineThroughput(b *testing.B) {
	blocks := benchSets["nasa7"]
	m := machine.Pipe1()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			e, err := engine.New(engine.Config{Workers: workers, Model: m})
			if err != nil {
				b.Fatal(err)
			}
			res := new(engine.BatchResult)
			if _, err := e.RunInto(res, blocks); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunInto(res, blocks); err != nil {
					b.Fatal(err)
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*float64(len(blocks))/secs, "blocks/sec")
				b.ReportMetric(float64(res.Stats.Arcs)*float64(b.N)/secs, "arcs/sec")
				b.ReportMetric(float64(res.Stats.Insts)*float64(b.N)/secs, "insts/sec")
			}
		})
	}
}

// BenchmarkEngineLargeBlocks exercises the engine on the fpppp-1000
// windowed set, where individual blocks are big enough for the
// per-block arena reuse (rather than the per-batch fan-out) to
// dominate.
func BenchmarkEngineLargeBlocks(b *testing.B) {
	blocks := benchSets["fpppp-1000"]
	e, err := engine.New(engine.Config{Workers: 1, Model: machine.Pipe1()})
	if err != nil {
		b.Fatal(err)
	}
	res := new(engine.BatchResult)
	if _, err := e.RunInto(res, blocks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunInto(res, blocks); err != nil {
			b.Fatal(err)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(res.Stats.Insts)*float64(b.N)/secs, "insts/sec")
	}
}
