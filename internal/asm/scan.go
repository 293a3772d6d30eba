// Streaming assembly reading: the constant-memory file-fed producer
// side of the engine's RunStream pipeline. Parse + block.Partition
// materialize the whole program before the first block is available;
// BlockScanner reads line by line and emits each basic block as soon
// as its boundary is seen, holding only the current block in memory —
// and recycles caller-provided block storage, so scanning a gigabyte
// of assembly occupies one block at a time.
//
// The scanner replicates Parse's line handling (comments, shared-line
// and stacked labels, directive skipping) and Partition's boundary
// rules (a label starts a block, a block-ending opcode ends one,
// synthesized ".bb<n>" names for unlabeled blocks) exactly: the block
// sequence is identical to block.Partition(Parse(src)) on any input.
package asm

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"strings"

	"daginsched/internal/block"
	"daginsched/internal/isa"
)

// BlockScanner incrementally partitions a textual assembly stream into
// basic blocks.
type BlockScanner struct {
	sc   *bufio.Scanner
	src  errReader
	line int

	pendingLabel string
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
	s := &BlockScanner{src: errReader{r: r}}
	s.sc = bufio.NewScanner(&s.src)
	s.sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	s.sc.Split(s.splitLines)
	return s
}

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
			in, ok, s.err = s.scanInst()
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
func (s *BlockScanner) scanInst() (isa.Inst, bool, error) {
	for s.sc.Scan() {
		s.line++
		raw := s.sc.Text()
		line := raw
		if i := strings.IndexByte(line, '!'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading label(s).
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t,[") {
				break
			}
			s.pendingLabel = line[:i]
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") && !strings.HasPrefix(line, ".L") {
			continue // assembler directive
		}
		in, err := parseInst(line)
		if err != nil {
			return isa.Inst{}, false, &ParseError{Line: s.line, Text: raw, Msg: err.Error()}
		}
		in.Label = s.pendingLabel
		s.pendingLabel = ""
		return in, true, nil
	}
	return isa.Inst{}, false, s.sc.Err()
}

// StreamBlocks scans r and sends each basic block onto out, recycling
// storage from the free list (non-blocking receives; nil if the caller
// does not recycle) — the assembly-fed twin of synth.StreamCorpus. out
// is closed on return. A cancelled ctx stops the stream at the next
// block boundary and returns ctx's error with the tallies so far.
func StreamBlocks(ctx context.Context, r io.Reader, out chan<- *block.Block, free <-chan *block.Block) (blocks, insts int64, err error) {
	defer close(out)
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	sc := NewBlockScanner(r)
	for {
		var b *block.Block
		select {
		case b = <-free:
		default:
			b = &block.Block{}
		}
		ok, err := sc.Next(b)
		if err != nil {
			return blocks, insts, err
		}
		if !ok {
			return blocks, insts, nil
		}
		n := int64(b.Len())
		select {
		case out <- b:
		case <-done:
			return blocks, insts, ctx.Err()
		}
		blocks++
		insts += n
	}
}
