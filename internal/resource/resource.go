// Package resource interns the schedulable resources of a basic block —
// integer and FP registers, condition codes, the %y register, and
// symbolic memory expressions — into a dense ID space.
//
// The ID space is exactly the paper's "variable-length bit map ... used
// to represent resource use and definition"; register resources occupy
// a fixed prefix and memory expressions are appended lazily in first-
// encounter order, so the table grows "whenever a new memory address
// expression is encountered" (Section 6). Because forward- and
// backward-pass DAG construction encounter expressions in opposite
// orders, the growth profile differs between them — that is the
// mechanism behind the paper's fpppp forward-vs-backward anomaly.
//
// Memory disambiguation follows Section 2:
//
//   - MemExprModel (default, what the paper's implementation used): each
//     unique symbolic expression (base register + offset, or static
//     symbol + offset) is its own resource. Two references with the same
//     base but different offsets therefore never conflict. References
//     that cannot be disambiguated — register-indexed addresses, or a
//     base register that is redefined inside the block — collapse their
//     whole storage class to a single serializing resource.
//   - MemClassModel: one resource per storage class (stack / static /
//     heap). This is Warren's observation that storage classes do not
//     overlap, with no finer analysis.
//   - MemSingleModel: memory is one resource; all loads and stores are
//     serialized ("The DAG construction algorithm may have to treat
//     memory as a single resource").
package resource

import (
	"daginsched/internal/isa"
)

// ID is a dense resource identifier. Register resources have fixed IDs
// equal to their isa.Reg value; memory resources follow.
type ID int32

// None marks the absence of a resource.
const None ID = -1

// NumFixed is the number of fixed (register) resource IDs: integer
// registers 0..31, FP registers 32..63, %icc, %fcc, %y.
const NumFixed = 67

// MemModel selects the memory-disambiguation policy.
type MemModel uint8

const (
	// MemExprModel gives each unique symbolic memory expression its own
	// resource (the paper's implementation; Table 3's last column counts
	// these).
	MemExprModel MemModel = iota
	// MemClassModel gives each storage class one resource.
	MemClassModel
	// MemSingleModel serializes all memory references on one resource.
	MemSingleModel
)

// String returns the model name.
func (m MemModel) String() string {
	switch m {
	case MemExprModel:
		return "expr"
	case MemClassModel:
		return "class"
	case MemSingleModel:
		return "single"
	}
	return "model?"
}

// StorageClass partitions memory per Warren's observation (Section 2):
// distinct classes cannot overlap.
type StorageClass uint8

const (
	// StackClass is frame storage addressed off %sp or %fp.
	StackClass StorageClass = iota
	// StaticClass is storage addressed by a symbol.
	StaticClass
	// HeapClass is everything else (pointer-based references).
	HeapClass

	numStorageClasses = int(HeapClass) + 1
)

// String returns the class name.
func (c StorageClass) String() string {
	switch c {
	case StackClass:
		return "stack"
	case StaticClass:
		return "static"
	case HeapClass:
		return "heap"
	}
	return "class?"
}

// ClassOf returns the storage class of a memory expression.
func ClassOf(m isa.MemExpr) StorageClass {
	if m.Sym != "" {
		return StaticClass
	}
	switch m.Base {
	case isa.SP, isa.FP:
		return StackClass
	}
	return HeapClass
}

// memKey is the comparable interning key of a symbolic memory
// expression, and the definition of a "unique memory expression": two
// expressions are the same exactly when their keys are equal. A struct
// key keeps the per-reference map lookups in the DAG-construction hot
// path allocation-free (the sym field aliases the instruction's
// existing string; nothing is built per lookup).
type memKey struct {
	sym         string
	base, index isa.Reg
	offset      int32
}

func keyOf(m isa.MemExpr) memKey {
	return memKey{sym: m.Sym, base: m.Base, index: m.Index, offset: m.Offset}
}

// Table interns the resources of one basic block. Create it once with
// NewTable and call PrepareBlock before constructing each block's DAG;
// interning state (and therefore the resource count) is per block.
//
// A Table is NOT safe for concurrent use: the parallel batch engine
// gives every worker its own Table.
type Table struct {
	model MemModel

	memIDs map[memKey]ID
	// memKeys logs memIDs insertions so reset can delete exactly the
	// previous block's entries. clear() walks every bucket of a map,
	// so after one giant block grows the map, clearing it per tiny
	// block costs the giant's capacity forever; targeted deletes keep
	// the per-block reset proportional to what the block interned.
	memKeys  []memKey
	next     ID
	dirty    [numStorageClasses]bool // class cannot be disambiguated
	wildcard [numStorageClasses]ID   // lazily allocated per-class serializer
	singleID ID                      // lazily allocated MemSingleModel resource

	// defbuf is PrepareBlock's reused prescan scratch: it survives
	// across blocks so the steady-state prescan performs no allocations.
	defbuf []isa.ResRef
}

// SetUniqueCounting does nothing.
//
// Deprecated: PrepareBlock no longer counts unique memory expressions;
// Table 3's count is the pure function UniqueMemExprs.
func (t *Table) SetUniqueCounting(bool) {}

// NewTable returns a table using the given memory model.
func NewTable(model MemModel) *Table {
	t := &Table{model: model, memIDs: make(map[memKey]ID)}
	t.reset()
	return t
}

// Model returns the table's memory-disambiguation model.
func (t *Table) Model() MemModel { return t.model }

func (t *Table) reset() {
	for _, k := range t.memKeys {
		delete(t.memIDs, k)
	}
	t.memKeys = t.memKeys[:0]
	t.next = NumFixed
	for i := range t.dirty {
		t.dirty[i] = false
		t.wildcard[i] = None
	}
	t.singleID = None
}

// PrepareBlock resets per-block interning state and prescans the block:
// it finds the registers the block defines and, from them, marks a
// storage class dirty when any of its references cannot be
// disambiguated — a register-indexed address, a base register that the
// block itself redefines, or a missing base. Dirty classes collapse to
// one serializing resource, which keeps the per-expression model sound.
func (t *Table) PrepareBlock(insts []isa.Inst) {
	t.reset()
	var defined [NumFixed]bool
	for i := range insts {
		t.defbuf = insts[i].AppendDefs(t.defbuf[:0])
		for _, d := range t.defbuf {
			if d.Kind == isa.RReg || d.Kind == isa.RFReg {
				defined[d.Reg] = true
			}
		}
	}
	for i := range insts {
		op := insts[i].Op
		if !op.IsLoad() && !op.IsStore() {
			continue
		}
		m := insts[i].Mem
		c := ClassOf(m)
		switch {
		case m.HasIndex():
			t.dirty[c] = true
		case m.Sym == "" && m.Base == isa.RegNone:
			t.dirty[c] = true
		case m.Base != isa.RegNone && m.Base != isa.G0 && defined[m.Base]:
			t.dirty[c] = true
		}
	}
}

// UniqueMemExprs returns the number of distinct symbolic memory
// expressions the loads and stores of insts address (Table 3, last
// column).
func UniqueMemExprs(insts []isa.Inst) int {
	seen := make(map[memKey]struct{})
	for i := range insts {
		if op := insts[i].Op; op.IsLoad() || op.IsStore() {
			seen[keyOf(insts[i].Mem)] = struct{}{}
		}
	}
	return len(seen)
}

// NumResources returns the current size of the resource ID space. It
// grows as memory expressions are interned.
func (t *Table) NumResources() int { return int(t.next) }

// RegID returns the fixed resource ID of a register.
func RegID(r isa.Reg) ID { return ID(r) }

// MemID interns a memory expression under the table's model and returns
// its resource ID, allocating a new ID on first encounter.
func (t *Table) MemID(m isa.MemExpr) ID {
	switch t.model {
	case MemSingleModel:
		if t.singleID == None {
			t.singleID = t.alloc()
		}
		return t.singleID
	case MemClassModel:
		return t.classID(ClassOf(m))
	}
	c := ClassOf(m)
	if t.dirty[c] {
		return t.classID(c)
	}
	// Resources are word-granular: sub-word accesses (byte/half) to the
	// same aligned word must share a resource to stay sound.
	canon := m
	canon.Offset &^= 3
	k := keyOf(canon)
	if id, ok := t.memIDs[k]; ok {
		return id
	}
	id := t.alloc()
	//sched:lint-ignore noalloc steady-state: the interning map survives PrepareBlock clears, so rewrites reuse its buckets
	t.memIDs[k] = id
	//sched:lint-ignore noalloc steady-state: the insertion log's capacity converges on the largest block's unique-expression count
	t.memKeys = append(t.memKeys, k)
	return id
}

func (t *Table) classID(c StorageClass) ID {
	if t.wildcard[c] == None {
		t.wildcard[c] = t.alloc()
	}
	return t.wildcard[c]
}

func (t *Table) alloc() ID {
	id := t.next
	t.next++
	return id
}

// RefID resolves a resource reference extracted from in to its ID.
func (t *Table) RefID(in *isa.Inst, r isa.ResRef) ID {
	if r.Kind == isa.RMem {
		return t.MemID(in.RefMem(r))
	}
	return RegID(r.Reg)
}
