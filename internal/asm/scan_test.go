package asm

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"daginsched/internal/block"
	"daginsched/internal/testgen"
)

// scanAll drains a BlockScanner into freshly copied blocks.
func scanAll(t *testing.T, src string) []*block.Block {
	t.Helper()
	sc := NewBlockScanner(strings.NewReader(src))
	var got []*block.Block
	var b block.Block
	for {
		ok, err := sc.Next(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		cp := &block.Block{Name: b.Name, Start: b.Start}
		cp.Insts = append(cp.Insts, b.Insts...)
		got = append(got, cp)
	}
}

// requireSameBlocks compares a scanned sequence against the batch
// Parse+Partition pipeline's output on the same source.
func requireSameBlocks(t *testing.T, src string, got []*block.Block) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := block.Partition(prog)
	if len(got) != len(want) {
		t.Fatalf("scanner found %d blocks, Partition found %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("block %d: name %q, want %q", i, g.Name, w.Name)
		}
		if g.Start != w.Start {
			t.Fatalf("block %d (%s): start %d, want %d", i, g.Name, g.Start, w.Start)
		}
		if len(g.Insts) != len(w.Insts) {
			t.Fatalf("block %d (%s): %d insts, want %d", i, g.Name, len(g.Insts), len(w.Insts))
		}
		for j := range g.Insts {
			if g.Insts[j] != w.Insts[j] {
				t.Fatalf("block %d (%s) inst %d: %v, want %v", i, g.Name, j, g.Insts[j], w.Insts[j])
			}
		}
	}
}

// trickySource exercises every line shape the scanner must carry
// across block boundaries: shared-line labels, stacked labels on their
// own lines, labels separated from their instruction by comments and
// directives, block-ending opcodes, and an unlabeled leading block.
const trickySource = `
	.file "tricky.s"
	add %o0, %o1, %o2      ! unlabeled leading block
	ba .L1
	.align 8
.L1:	sub %l0, 16, %l1       ! shared-line label
	cmp %l1, 0
	bne .L2
.L2:
.L3:                           ! stacked labels: .L2 is empty in name only
	! comment between label and instruction
	.word 42
	ld [%fp-8], %o0
	st %o0, [_tab+12]
	retl
	mov 7, %o1
.L4:	ret
	call _printf
	fadds %f0, %f1, %f2
`

func TestScannerMatchesPartition(t *testing.T) {
	requireSameBlocks(t, trickySource, scanAll(t, trickySource))
}

// TestScannerMatchesPartitionOnPrintedProgram runs the equivalence on
// a large machine-printed program (Print/Parse roundtripping is proven
// separately by the fuzz test, so Print output is a faithful corpus).
func TestScannerMatchesPartitionOnPrintedProgram(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		sb.WriteString(Print(testgen.Block(int64(7000+i), 1+i*7%230)))
	}
	src := sb.String()
	requireSameBlocks(t, src, scanAll(t, src))
}

// TestScannerStickyError: a malformed line fails with its line number,
// and every subsequent Next repeats the same error.
func TestScannerStickyError(t *testing.T) {
	src := "\tadd %o0, %o1, %o2\n\tbogus %q9\n\tsub %o0, 1, %o1\n"
	sc := NewBlockScanner(strings.NewReader(src))
	var b block.Block
	_, err := sc.Next(&b)
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("error on line %d, want 2", pe.Line)
	}
	_, err2 := sc.Next(&b)
	if err2 != err {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
}

// TestScannerCutOffRead: when the reader fails mid-line (a body cut by
// a size cap, an aborted upload), the fragment after the last newline
// is not a line. The scanner reports the reader's error instead of
// scheduling an instruction nobody sent (the cut "bne b12") or blaming
// the fragment with a parse error (the cut "cmp %o1"). An unterminated
// last line after a clean EOF is still a line.
func TestScannerCutOffRead(t *testing.T) {
	const src = "b0:\n\tadd %o0, 1, %o1\n\tcmp %o1, 0\n\tbne b12345\n"
	for _, cut := range []string{"\tbne b12", "\tcmp %o1"} {
		n := strings.Index(src, cut) + len(cut)
		r := io.MultiReader(strings.NewReader(src[:n]), iotest.ErrReader(io.ErrUnexpectedEOF))
		sc := NewBlockScanner(r)
		var b block.Block
		ok, err := sc.Next(&b)
		if ok || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut after %q: ok %v, err %v, insts %v; want the reader's error", cut, ok, err, b.Insts)
		}
	}
	blocks := scanAll(t, strings.TrimSuffix(src, "\n"))
	if len(blocks) != 1 || len(blocks[0].Insts) != 3 {
		t.Fatalf("unterminated last line at EOF: got %d blocks", len(blocks))
	}
}

// TestScannerResetMatchesFresh: one scanner Reset over several inputs
// in a row, one of them malformed, gives exactly what a fresh scanner
// gives on each — synthesized .bb<n> names, Block.Start and the parse
// error's line number all restart from zero — and its line buffer is
// the same one throughout.
func TestScannerResetMatchesFresh(t *testing.T) {
	inputs := []string{
		trickySource,
		"\tadd %o0, 1, %o1\n\tbogus %q9\n",
		"\tnop\n" + trickySource,
		"\tsub %o0, 1, %o1\n\tbne .L9\n\tnop\n",
		"b0:\n\tadd %o0, 1, %o1\n\tst %o1, [%fp-8]\n\tnop\n",
	}
	drain := func(sc *BlockScanner) (got []block.Block, err error) {
		var b block.Block
		for {
			ok, err := sc.Next(&b)
			if !ok {
				return got, err
			}
			got = append(got, block.Block{Name: b.Name, Start: b.Start, Insts: slices.Clone(b.Insts)})
		}
	}
	reused := NewBlockScanner(strings.NewReader(""))
	buf := &reused.buf[:1][0]
	for round := range 2 {
		for i, src := range inputs {
			want, wantErr := drain(NewBlockScanner(strings.NewReader(src)))
			reused.Reset(strings.NewReader(src))
			got, err := drain(reused)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("round %d input %d: error %v, fresh scanner %v", round, i, err, wantErr)
			}
			if !slices.EqualFunc(got, want, func(x, y block.Block) bool {
				return x.Name == y.Name && x.Start == y.Start && slices.Equal(x.Insts, y.Insts)
			}) {
				t.Fatalf("round %d input %d: blocks %v, fresh scanner %v", round, i, got, want)
			}
			if reused.Err() != err {
				t.Fatalf("round %d input %d: Err() %v, Next returned %v", round, i, reused.Err(), err)
			}
		}
	}
	if &reused.buf[:1][0] != buf {
		t.Fatal("Reset replaced the line buffer")
	}
}

// loopReader yields text over and over, without allocating.
type loopReader struct {
	text []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.text[r.off:])
	r.off = (r.off + n) % len(r.text)
	return n, nil
}

// TestScannerNoAlloc: once the name table has seen every label, branch
// target and symbol, and the recycled block has grown to the largest
// block, Next allocates nothing.
func TestScannerNoAlloc(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "L%d:\n", i)
		sb.WriteString(Print(testgen.Block(int64(300+i), 1+i%17)))
		fmt.Fprintf(&sb, "\tld [_tab+%%g1+%d], %%f%d\n\tfadds %%f1, %%f2, %%f3\n\tbne,a L%d\n", 4*i, i%32, (i+7)%40)
	}
	text := sb.String()
	blocks := len(scanAll(t, text))
	sc := NewBlockScanner(&loopReader{text: []byte(text)})
	var b block.Block
	next := func() {
		if ok, err := sc.Next(&b); !ok || err != nil {
			t.Fatalf("Next: %v, %v", ok, err)
		}
	}
	for i := 0; i < blocks; i++ {
		next()
	}
	if n := testing.AllocsPerRun(5*blocks, next); n != 0 {
		t.Fatalf("Next allocates %v times per block in steady state", n)
	}
}

// TestScannerNamesBounded: a stream of unique labels keeps the name
// table at its bound, and every label still comes out right.
func TestScannerNamesBounded(t *testing.T) {
	var sb strings.Builder
	const n = 3*maxNames + 5
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "L%d:\n\tadd %%o0, 1, %%o1\n\tbne L%d\n", i, n-1-i)
	}
	sc := NewBlockScanner(strings.NewReader(sb.String()))
	var b block.Block
	for i := 0; ; i++ {
		ok, err := sc.Next(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != n {
				t.Fatalf("%d blocks, want %d", i, n)
			}
			break
		}
		if want := fmt.Sprintf("L%d", i); b.Name != want || b.Insts[1].Target != fmt.Sprintf("L%d", n-1-i) {
			t.Fatalf("block %d: name %q target %q", i, b.Name, b.Insts[1].Target)
		}
		if len(sc.p.names) > maxNames {
			t.Fatalf("name table holds %d names, bound %d", len(sc.p.names), maxNames)
		}
	}
}
