package asm

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/synth"
)

// profileTexts renders generation pass 0 of the nine Table 3 profiles
// the way perfbench's text workloads do: one text per profile, every
// block under its own "L<i>:" label.
func profileTexts() ([][]byte, int) {
	var texts [][]byte
	insts := 0
	for _, p := range synth.Profiles() {
		var text []byte
		for i, b := range p.GeneratePass(0) {
			text = append(text, 'L')
			text = strconv.AppendInt(text, int64(i), 10)
			text = append(text, ":\n"...)
			text = append(text, Print(b.Insts)...)
			insts += b.Len()
		}
		texts = append(texts, text)
	}
	return texts, insts
}

// BenchmarkBlockScanner scans the nine rendered profiles with one
// scanner per profile, as a stream does, recycling one block. One op
// is the whole corpus; ns/inst and allocs/inst normalize it.
func BenchmarkBlockScanner(b *testing.B) {
	texts, insts := profileTexts()
	var blk block.Block
	var ms0, ms1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			sc := NewBlockScanner(bytes.NewReader(text))
			for {
				ok, err := sc.Next(&blk)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	b.StopTimer()
	n := float64(b.N) * float64(insts)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/inst")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/inst")
}
