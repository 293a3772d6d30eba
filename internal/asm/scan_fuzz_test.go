// Fuzzing for the streaming BlockScanner: the daemon feeds it raw
// request bodies straight off the network, so it must hold three
// properties under arbitrary byte soup — never panic, make errors
// sticky (a poisoned scanner keeps refusing instead of resuming
// mid-stream with silently dropped lines), and agree block-for-block
// with the materializing Parse + Partition path on every input both
// can process.
package asm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"daginsched/internal/block"
	"daginsched/internal/isa"
	"daginsched/internal/testgen"
)

// fuzzScanAll drains a BlockScanner into deep-copied blocks, reusing one
// recycled block for every Next call the way the engine's RunSource
// reuses its block storage, so the fuzz also exercises recycling.
func fuzzScanAll(src string) ([]*block.Block, error) {
	sc := NewBlockScanner(strings.NewReader(src))
	var out []*block.Block
	var b block.Block
	for {
		ok, err := sc.Next(&b)
		if err != nil {
			// Sticky: every later Next must keep returning the same error.
			for i := 0; i < 3; i++ {
				if ok2, err2 := sc.Next(&b); ok2 || err2 != err {
					return nil, errors.New("scanner error is not sticky")
				}
			}
			return out, err
		}
		if !ok {
			return out, nil
		}
		cp := &block.Block{Name: b.Name, Start: b.Start}
		cp.Insts = append([]isa.Inst(nil), b.Insts...)
		out = append(out, cp)
	}
}

// manyLabels is n one-instruction blocks under distinct labels, each
// branching to another.
func manyLabels(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "L%d:\tbne L%d\n", i, (i*7+3)%n)
	}
	return sb.String()
}

// FuzzBlockScanner drives the scanner with hostile inputs and checks
// it against Parse + Partition. The differential is skipped when the
// two paths legitimately diverge: carriage returns (bufio.ScanLines
// strips a trailing \r, Parse splits on \n alone) and lines past
// the scanner's 1MiB buffer (Parse has no line cap).
func FuzzBlockScanner(f *testing.F) {
	f.Add("top:\n\tld [%fp-8], %o0\n\tadd %o0, %o1, %o2\n\tbne top\n")
	f.Add(Print(testgen.Block(1, 24)))
	f.Add("a:b:c:\tnop\n")          // stacked labels
	f.Add("\tnop ! trailing\n.x\n") // comment + directive
	f.Add("x\x00y:\n\tnop")         // NUL bytes
	f.Add("lbl:")                   // truncated: label, no instruction
	f.Add("\tld [%fp")              // truncated mid-operand
	f.Add(strings.Repeat("\tnop\n", 300))
	f.Add("\tbne a\n\tbne b\nc:\n\tcmp %o0, 1\n")
	f.Add("!: ,[\n::\n\t.L:\n")
	f.Add("\tfaddd %f0, %f2, %f4\n\tmov %r17, %r31\n\tfcmps %f31, %f9\n")         // FP and %r registers
	f.Add("\tmov %f01, %o0\n\tadd %f+1, %r32, %g8\n\tmov %F1, %o8\n")             // non-canonical spellings
	f.Add("\tld [_tab+%g1+4], %o0\n\tst %o0, [%o1+%o2+%o3]\n\tld [_a+_b], %o0\n") // 3-term memory operands
	f.Add("\tadd %o0, %o1, %o2, %o3, %o4\n")                                      // 5 operands
	f.Add("top:\r\n\tadd %o0, 1, %o1\r\n\tbne top\r\n")                           // CRLF
	f.Add(manyLabels(maxNames + 100))                                             // overflows the name table

	f.Fuzz(func(t *testing.T, src string) {
		got, scanErr := fuzzScanAll(src)

		insts, parseErr := Parse(src)
		if strings.ContainsRune(src, '\r') {
			return
		}
		if scanErr != nil {
			if errors.Is(scanErr, bufio.ErrTooLong) {
				return
			}
			var pe *ParseError
			if !errors.As(scanErr, &pe) {
				t.Fatalf("scanner error is neither ErrTooLong nor ParseError: %v", scanErr)
			}
			if pe.Line < 1 || pe.Line > strings.Count(src, "\n")+1 {
				t.Fatalf("scanner ParseError has impossible line %d", pe.Line)
			}
			if parseErr == nil {
				t.Fatalf("scanner rejected input Parse accepts: %v", scanErr)
			}
			return
		}
		if parseErr != nil {
			t.Fatalf("scanner accepted input Parse rejects: %v", parseErr)
		}

		want := block.Partition(insts)
		if len(got) != len(want) {
			t.Fatalf("scanner emitted %d blocks, Partition %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Start != w.Start || len(g.Insts) != len(w.Insts) {
				t.Fatalf("block %d: scanner %q start %d len %d, Partition %q start %d len %d",
					i, g.Name, g.Start, len(g.Insts), w.Name, w.Start, len(w.Insts))
			}
			for k := range w.Insts {
				if g.Insts[k] != w.Insts[k] {
					t.Fatalf("block %d inst %d: %+v != %+v", i, k, g.Insts[k], w.Insts[k])
				}
			}
		}
	})
}

// TestBlockScannerOversizedLine pins the 1MiB line cap: a longer line
// must surface bufio.ErrTooLong as a sticky error, not hang or panic.
func TestBlockScannerOversizedLine(t *testing.T) {
	var src bytes.Buffer
	src.WriteString("\tnop\n\t")
	src.WriteString(strings.Repeat("a", 2<<20))
	src.WriteString("\n")
	_, err := fuzzScanAll(src.String())
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("oversized line: got %v, want bufio.ErrTooLong", err)
	}
}

// TestBlockScannerRecycledAfterError proves an error on one scanner
// does not poison a recycled block handed to a fresh scanner.
func TestBlockScannerRecycledAfterError(t *testing.T) {
	var b block.Block
	bad := NewBlockScanner(strings.NewReader("\tld [%fp\n"))
	if ok, err := bad.Next(&b); ok || err == nil {
		t.Fatalf("malformed input: ok=%v err=%v", ok, err)
	}
	good := NewBlockScanner(strings.NewReader("top:\n\tnop\n"))
	ok, err := good.Next(&b)
	if !ok || err != nil {
		t.Fatalf("fresh scanner with recycled block: ok=%v err=%v", ok, err)
	}
	if b.Name != "top" || len(b.Insts) != 1 || b.Insts[0].Op != isa.NOP {
		t.Fatalf("recycled block carries stale state: %+v", b)
	}
}
