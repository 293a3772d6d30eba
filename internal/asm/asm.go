// Package asm parses and prints the SPARC-like textual assembly of
// package isa. The dialect follows SunOS assembler output — the format
// of the paper's benchmark inputs ("cc -O4 -S") — restricted to the
// opcodes the ISA defines:
//
//	! comment
//	label:
//	        ld      [%fp-8], %o0
//	        add     %o0, 1, %o1
//	        sethi   %hi(4096), %g1
//	        st      %o1, [_counter]
//	        bne,a   .L77
//	        nop
//
// The parser is line-oriented; a label may share a line with an
// instruction. Errors carry line numbers.
package asm

import (
	"bytes"
	"fmt"
	"strconv"

	"daginsched/internal/isa"
)

// ParseError is a parse failure with its source line.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("asm: line %d: %s (%q)", e.Line, e.Msg, e.Text)
}

// newParseError renders a line's failure, copying the line out of the
// buffer the next line reuses. Parsing a line allocates nowhere else
// but for a name it has not seen.
func newParseError(line int, raw []byte, err error) *ParseError {
	//sched:lint-ignore noalloc error path: a malformed line ends the parse
	return &ParseError{Line: line, Text: string(raw), Msg: err.Error()}
}

// Parse assembles a program. Labels attach to the following
// instruction; directives (lines starting with '.') and comments are
// skipped.
func Parse(src string) ([]isa.Inst, error) {
	var out []isa.Inst
	var p parser
	text := []byte(src)
	for ln := 1; ; ln++ {
		raw, rest, more := bytes.Cut(text, []byte{'\n'})
		var in isa.Inst
		ok, err := p.line(raw, &in)
		if err != nil {
			return nil, newParseError(ln, raw, err)
		}
		if ok {
			in.Index = len(out)
			out = append(out, in)
		}
		if !more {
			return out, nil
		}
		text = rest
	}
}

// maxOperands is the most operands any format takes. A line with more
// is still counted, for the "wants N operands, got M" error.
const maxOperands = 3

// parser holds the state the line rules carry from line to line — the
// pending label — and the scratch the instruction parser reuses, so
// that parsing a line allocates nothing but the names it has not seen.
// Operands and terms are subslices of the line; the parser keeps none
// of them past the line.
type parser struct {
	label string // defined by the last label, for the next instruction
	ops   [maxOperands][]byte
	nops  int // operands on the line, including any past maxOperands
	names map[string]string
	fault fault
}

// maxNames bounds the name table: when it is full it starts over, so
// a stream of unique labels holds at most this many names.
const maxNames = 1024

// name returns b as a string, sharing one copy per distinct name. A
// hit allocates nothing: a map index by a converted byte slice does
// not copy it.
func (p *parser) name(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	//sched:lint-ignore noalloc a map index by string(b) does not copy b
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	if len(p.names) >= maxNames {
		clear(p.names) // keeps the buckets: the table stops growing
	}
	if p.names == nil {
		//sched:lint-ignore noalloc miss: made once per parser
		p.names = make(map[string]string)
	}
	//sched:lint-ignore noalloc miss: the one copy a new name costs
	s := string(b)
	//sched:lint-ignore noalloc miss: grows only until the table first fills
	p.names[s] = s
	return s
}

// fault is why a line failed to parse, kept unrendered: format takes
// text, then want and got for an operand count. text aliases the line
// buffer, so a fault must be rendered before the next line is read.
type fault struct {
	format    string
	text      []byte
	want, got int
}

func (f *fault) Error() string {
	if f.format == wantOperands {
		return fmt.Sprintf(f.format, f.text, f.want, f.got)
	}
	return fmt.Sprintf(f.format, f.text)
}

const wantOperands = "%s wants %d operands, got %d"

// fail records a failure of the current line and returns it.
func (p *parser) fail(format string, text []byte) error {
	p.fault = fault{format: format, text: text}
	return &p.fault
}

// line parses one source line: it strips a '!' comment, takes any
// leading labels (the last one is kept for the next instruction),
// skips directives, and parses what is left into in. It reports
// whether the line held an instruction.
//
//sched:noalloc
func (p *parser) line(raw []byte, in *isa.Inst) (bool, error) {
	line := raw
	if i := bytes.IndexByte(line, '!'); i >= 0 {
		line = line[:i]
	}
	line = bytes.TrimSpace(line)
	for len(line) > 0 {
		i := bytes.IndexByte(line, ':')
		if i < 0 || bytes.ContainsAny(line[:i], " \t,[") {
			break
		}
		p.label = p.name(line[:i])
		line = bytes.TrimSpace(line[i+1:])
	}
	if len(line) == 0 {
		return false, nil
	}
	if line[0] == '.' && !bytes.HasPrefix(line, dotL) {
		return false, nil // assembler directive
	}
	if err := p.inst(line, in); err != nil {
		return false, err
	}
	in.Label = p.label
	p.label = ""
	return true, nil
}

var dotL = []byte(".L")

// inst assembles one instruction line (no label, no comment) into in.
func (p *parser) inst(line []byte, in *isa.Inst) error {
	mnem := line
	var rest []byte
	if i := bytes.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], bytes.TrimSpace(line[i+1:])
	}
	annul := false
	if n := len(mnem); n >= 2 && mnem[n-2] == ',' && mnem[n-1] == 'a' {
		annul = true
		mnem = mnem[:n-2]
	}
	op, ok := isa.OpcodeByName(mnem)
	if !ok {
		return p.fail("unknown mnemonic %q", mnem)
	}
	p.split(rest)
	*in = isa.Inst{Op: op, RS1: isa.RegNone, RS2: isa.RegNone, RD: isa.RegNone,
		Mem: isa.NoMem, Annul: annul}
	if annul && !op.IsBranch() {
		return p.fail("%q cannot be annulled", mnem)
	}
	ops := &p.ops
	need := func(n int) error {
		if p.nops != n {
			p.fault = fault{format: wantOperands, text: mnem, want: n, got: p.nops}
			return &p.fault
		}
		return nil
	}
	switch op.Format() {
	case isa.FmtNone:
		return need(0)
	case isa.Fmt3:
		switch op {
		case isa.MOV: // mov rs2|imm, rd
			if err := need(2); err != nil {
				return err
			}
			in.RS1 = isa.G0
			if err := p.regOrImm(ops[0], in); err != nil {
				return err
			}
			return p.reg(ops[1], &in.RD)
		case isa.CMP: // cmp rs1, rs2|imm
			if err := need(2); err != nil {
				return err
			}
			in.RD = isa.G0
			if err := p.reg(ops[0], &in.RS1); err != nil {
				return err
			}
			return p.regOrImm(ops[1], in)
		}
		if op == isa.RESTORE && p.nops == 0 { // bare restore
			in.RS1, in.RS2, in.RD = isa.G0, isa.G0, isa.G0
			return nil
		}
		if err := need(3); err != nil {
			return err
		}
		if err := p.reg(ops[0], &in.RS1); err != nil {
			return err
		}
		if err := p.regOrImm(ops[1], in); err != nil {
			return err
		}
		return p.reg(ops[2], &in.RD)
	case isa.FmtLoad:
		if err := need(2); err != nil {
			return err
		}
		if err := p.mem(ops[0], &in.Mem); err != nil {
			return err
		}
		return p.reg(ops[1], &in.RD)
	case isa.FmtStore:
		if err := need(2); err != nil {
			return err
		}
		if err := p.reg(ops[0], &in.RD); err != nil {
			return err
		}
		return p.mem(ops[1], &in.Mem)
	case isa.FmtBranch, isa.FmtCall:
		if err := need(1); err != nil {
			return err
		}
		in.Target = p.name(ops[0])
		return nil
	case isa.FmtSethi:
		if err := need(2); err != nil {
			return err
		}
		s := ops[0]
		if bytes.HasPrefix(s, hiOpen) && s[len(s)-1] == ')' {
			s = s[len(hiOpen) : len(s)-1]
		}
		v, ok := parseInt32(s)
		if !ok {
			return p.fail("bad sethi operand %q", s)
		}
		in.Imm, in.HasImm = v, true
		return p.reg(ops[1], &in.RD)
	case isa.FmtFp2:
		if err := need(2); err != nil {
			return err
		}
		if err := p.reg(ops[0], &in.RS2); err != nil {
			return err
		}
		return p.reg(ops[1], &in.RD)
	case isa.FmtFp3:
		if err := need(3); err != nil {
			return err
		}
		if err := p.reg(ops[0], &in.RS1); err != nil {
			return err
		}
		if err := p.reg(ops[1], &in.RS2); err != nil {
			return err
		}
		return p.reg(ops[2], &in.RD)
	case isa.FmtFcmp:
		if err := need(2); err != nil {
			return err
		}
		if err := p.reg(ops[0], &in.RS1); err != nil {
			return err
		}
		return p.reg(ops[1], &in.RS2)
	case isa.FmtJmpl: // jmpl rs1[+-off], rd
		if err := need(2); err != nil {
			return err
		}
		s := ops[0]
		i := bytes.IndexAny(s, "+-")
		if i < 0 {
			i = len(s)
		}
		if err := p.reg(s[:i], &in.RS1); err != nil {
			return err
		}
		in.Imm, in.HasImm = 0, true
		if i < len(s) {
			v, ok := parseInt32(s[i:])
			if !ok {
				return p.fail("bad offset %q", s[i:])
			}
			in.Imm = v
		}
		return p.reg(ops[1], &in.RD)
	case isa.FmtRdY:
		if err := need(2); err != nil {
			return err
		}
		if r, ok := isa.RegByName(ops[0]); !ok || r != isa.Y {
			return p.fail("rd reads %%y, got %q", ops[0])
		}
		return p.reg(ops[1], &in.RD)
	}
	return p.fail("unhandled format for %q", mnem)
}

var hiOpen = []byte("%hi(")

// split splits an operand list on the commas outside brackets into
// p.ops, counting all of them in p.nops.
func (p *parser) split(s []byte) {
	p.nops = 0
	if len(s) == 0 {
		return
	}
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				p.addOp(s[start:i])
				start = i + 1
			}
		}
	}
	p.addOp(s[start:])
}

func (p *parser) addOp(op []byte) {
	if p.nops < len(p.ops) {
		p.ops[p.nops] = bytes.TrimSpace(op)
	}
	p.nops++
}

func (p *parser) reg(s []byte, dst *isa.Reg) error {
	r, ok := isa.RegByName(s)
	if !ok {
		return p.fail("isa: unknown register %q", s)
	}
	*dst = r
	return nil
}

// regOrImm fills RS2 or Imm from the second ALU operand.
func (p *parser) regOrImm(s []byte, in *isa.Inst) error {
	if len(s) > 0 && s[0] == '%' {
		return p.reg(s, &in.RS2)
	}
	v, ok := parseInt32(s)
	if !ok {
		return p.fail("bad immediate %q", s)
	}
	in.Imm, in.HasImm = v, true
	return nil
}

// parseInt32 parses a 32-bit integer with strconv.ParseInt's base-0
// syntax. Plain decimal short enough not to overflow is parsed in
// place; anything else (hex, octal, underscores, malformed text) goes
// through strconv.
func parseInt32(s []byte) (int32, bool) {
	digits := s
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if n := len(digits); n > 0 && n <= 9 && (digits[0] != '0' || n == 1) {
		v := int32(0)
		for _, c := range digits {
			if c < '0' || c > '9' {
				return parseInt32Slow(s)
			}
			v = v*10 + int32(c-'0')
		}
		if s[0] == '-' {
			v = -v
		}
		return v, true
	}
	return parseInt32Slow(s)
}

func parseInt32Slow(s []byte) (int32, bool) {
	//sched:lint-ignore noalloc rare: only literals that are not short plain decimal reach strconv
	v, err := strconv.ParseInt(string(s), 0, 32)
	return int32(v), err == nil
}

// mem parses "[%fp-8]", "[%o0+%o1]", "[_sym]", "[_sym+%g1+4]" into m.
func (p *parser) mem(s []byte, m *isa.MemExpr) error {
	*m = isa.NoMem
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return p.fail("bad memory operand %q", s)
	}
	body := s[1 : len(s)-1]
	// Walk the +/- separated terms, keeping signs on numbers: a '+'
	// or '-' after the first byte ends a term, and the byte after it
	// cannot end one.
	terms := 0
	start := 0
	for i := 1; ; {
		var term []byte
		last := i >= len(body)
		switch {
		case last:
			term = body[start:]
		case body[i] == '+' || body[i] == '-':
			term = body[start:i]
			start = i
			if body[i] == '+' {
				start++
			}
			i += 2
		default:
			i++
			continue
		}
		term = bytes.TrimSpace(term)
		if len(term) > 0 && !(len(term) == 1 && term[0] == '+') {
			terms++
			if err := p.memTerm(s, term, m); err != nil {
				return err
			}
		}
		if last {
			break
		}
	}
	if terms == 0 {
		return p.fail("empty memory operand %q", s)
	}
	if m.Sym == "" && m.Base == isa.RegNone {
		return p.fail("memory operand %q has no base or symbol", s)
	}
	if m.Sym != "" && m.Base == isa.RegNone {
		m.Base = isa.G0
	}
	return nil
}

// memTerm adds one term of the memory operand s to m.
func (p *parser) memTerm(s, term []byte, m *isa.MemExpr) error {
	switch c := term[0]; {
	case c == '%':
		var r isa.Reg
		if err := p.reg(term, &r); err != nil {
			return err
		}
		if m.Base == isa.RegNone {
			m.Base = r
		} else if m.Index == isa.RegNone {
			m.Index = r
		} else {
			return p.fail("too many registers in %q", s)
		}
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		v, ok := parseInt32(term)
		if !ok {
			return p.fail("bad displacement %q", term)
		}
		m.Offset += v
	default:
		if m.Sym != "" {
			return p.fail("two symbols in %q", s)
		}
		m.Sym = p.name(term)
	}
	return nil
}

// Print renders a program back to assembly text, one instruction per
// line with labels on their own lines.
func Print(insts []isa.Inst) string {
	b := make([]byte, 0, 24*len(insts))
	for i := range insts {
		if insts[i].Label != "" {
			b = append(append(b, insts[i].Label...), ":\n"...)
		}
		b = append(insts[i].AppendTo(append(b, '\t')), '\n')
	}
	return string(b)
}
