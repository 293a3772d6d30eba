// Streaming assembly reading: the constant-memory source of the
// engine's RunSource pipeline. Parse + block.Partition
// materialize the whole program before the first block is available;
// BlockScanner reads line by line and emits each basic block as soon
// as its boundary is seen, holding only the current block in memory —
// and recycles caller-provided block storage, so scanning a gigabyte
// of assembly occupies one block at a time.
//
// The scanner parses each line with Parse's own line function
// (comments, shared-line and stacked labels, directive skipping) and
// replicates Partition's boundary rules (a label starts a block, a
// block-ending opcode ends one, synthesized ".bb<n>" names for
// unlabeled blocks) exactly: the block sequence is identical to
// block.Partition(Parse(src)) on any input. Lines are scanned as bytes
// and parsed in place, so a line whose names the scanner has seen
// before costs no allocation.
package asm

import (
	"bufio"
	"bytes"
	"io"

	"daginsched/internal/block"
	"daginsched/internal/isa"
)

// BlockScanner incrementally partitions a textual assembly stream into
// basic blocks. Its Next makes it an engine.BlockSource.
type BlockScanner struct {
	sc    bufio.Scanner
	buf   []byte          // the line buffer, kept across Reset
	split bufio.SplitFunc // splitLines, bound once
	src   errReader
	line  int

	p parser // the pending label and the line parser's scratch

	// pendingInst is an already-parsed instruction whose label closed
	// the previous block; it leads the next one.
	pendingInst isa.Inst
	hasPending  bool

	index  int // global instruction index (Block.Start numbering)
	blocks int // blocks emitted, for SynthName
	err    error
}

// NewBlockScanner returns a scanner over r. The line buffer grows to
// 1MiB, far beyond any plausible assembly line.
func NewBlockScanner(r io.Reader) *BlockScanner {
	s := new(BlockScanner)
	s.Reset(r)
	return s
}

// Reset makes s scan r from its start, as a new scanner would: block
// names (.bb<n> included), Block.Start and line numbers restart from
// zero and a sticky error is forgotten. The 64 KiB line buffer and the
// bounded name table are kept, so a pooled scanner costs a request
// nothing to set up. Reset(nil) drops the last reader; Next must not be
// called until the next Reset.
func (s *BlockScanner) Reset(r io.Reader) {
	if s.buf == nil {
		s.buf, s.split = make([]byte, 0, 64*1024), s.splitLines
	}
	s.src = errReader{r: r}
	s.sc = *bufio.NewScanner(&s.src)
	s.sc.Buffer(s.buf, 1<<20)
	s.sc.Split(s.split)
	s.line, s.index, s.blocks, s.err = 0, 0, 0, nil
	s.pendingInst, s.hasPending = isa.Inst{}, false
	s.p.label = ""
}

// Err returns the error that stopped the scan: nil while it runs and
// after a clean end of input.
func (s *BlockScanner) Err() error { return s.err }

// errReader remembers the first error its reader returned.
type errReader struct {
	r   io.Reader
	err error
}

func (e *errReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

// splitLines is bufio.ScanLines, except that an unterminated final
// line counts only when the reader ended with a clean io.EOF. A
// bufio.Scanner hands back the tail of a failed read (a body cut off by
// a size cap or an aborted upload) as a last line before it reports the
// error; that tail is a fragment, so the reader's error comes first.
// Before end of input the only extra work per line is one branch.
func (s *BlockScanner) splitLines(data []byte, atEOF bool) (int, []byte, error) {
	if atEOF && s.src.err != io.EOF && bytes.IndexByte(data, '\n') < 0 {
		return 0, nil, s.src.err
	}
	return bufio.ScanLines(data, atEOF)
}

// Next fills b with the next basic block, recycling b's instruction
// storage, and reports whether a block was produced. It returns false
// with a nil error at end of input and false with the error (sticky)
// on a malformed line or reader failure.
//
// In steady state — b's storage grown to the largest block, every name
// on the line seen before — Next allocates nothing. A new label, branch
// target or symbol costs one copy, a block without a label one
// synthesized name.
//
//sched:noalloc
func (s *BlockScanner) Next(b *block.Block) (bool, error) {
	if s.err != nil {
		return false, s.err
	}
	b.Insts = b.Insts[:0]
	b.Name = ""
	b.Start = 0
	b.WindowPiece = 0
	for {
		var in isa.Inst
		if s.hasPending {
			in, s.hasPending = s.pendingInst, false
		} else {
			var ok bool
			ok, s.err = s.scanInst(&in)
			if s.err != nil {
				return false, s.err
			}
			if !ok {
				if len(b.Insts) > 0 {
					s.blocks++
					return true, nil
				}
				return false, nil
			}
		}
		if in.Label != "" && len(b.Insts) > 0 {
			s.pendingInst, s.hasPending = in, true
			s.blocks++
			return true, nil
		}
		if len(b.Insts) == 0 {
			b.Name = in.Label
			if b.Name == "" {
				b.Name = block.SynthName(s.blocks)
			}
			b.Start = s.index
		}
		in.Index = len(b.Insts)
		//sched:lint-ignore noalloc amortized: callers recycle b, whose capacity is kept across blocks
		b.Insts = append(b.Insts, in)
		s.index++
		if in.Op.EndsBlock() {
			s.blocks++
			return true, nil
		}
	}
}

// scanInst parses forward to the next instruction, carrying labels
// across blank, comment and directive lines exactly as Parse does.
func (s *BlockScanner) scanInst(in *isa.Inst) (bool, error) {
	for s.sc.Scan() {
		s.line++
		raw := s.sc.Bytes()
		ok, err := s.p.line(raw, in)
		if err != nil {
			return false, newParseError(s.line, raw, err)
		}
		if ok {
			return true, nil
		}
	}
	return false, s.sc.Err()
}
