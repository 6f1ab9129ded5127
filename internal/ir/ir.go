package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
)

// Instr is a single IR instruction. The operand fields used depend on Op;
// unused register fields must be NoReg. ID is assigned by Func.Finalize and
// is unique and dense within the function (it indexes Func.Linear).
type Instr struct {
	Op      Op
	Dst     Reg
	A, B    Reg
	Imm     int64
	Target  string // branch/jmp/fork target label, call target function, or global name
	Target2 string // Br only: the not-taken successor label
	Args    []Reg  // Call only: argument registers
	ID      int    // dense per-function instruction id (set by Finalize)
}

// Uses appends the registers read by the instruction to dst and returns it.
func (in *Instr) Uses(dst []Reg) []Reg {
	n := in.Op.NumSrc()
	if n >= 1 && in.A != NoReg {
		dst = append(dst, in.A)
	}
	if n >= 2 && in.B != NoReg {
		dst = append(dst, in.B)
	}
	if in.Op == Call {
		dst = append(dst, in.Args...)
	}
	return dst
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return NoReg
}

// fmtAddr renders a base+offset memory operand ("r3", "r3+8", "r3-1").
func fmtAddr(base Reg, off int64) string {
	switch {
	case off == 0:
		return base.String()
	case off > 0:
		return fmt.Sprintf("%v+%d", base, off)
	default:
		return fmt.Sprintf("%v%d", base, off)
	}
}

// String renders the instruction in the textual IR syntax (see Parse).
func (in *Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s ", in.Op)
	switch in.Op {
	case Nop, SptKill:
	case Mov:
		fmt.Fprintf(&b, "%v, %v", in.Dst, in.A)
	case MovI:
		fmt.Fprintf(&b, "%v, %d", in.Dst, in.Imm)
	case AddI, MulI:
		fmt.Fprintf(&b, "%v, %v, %d", in.Dst, in.A, in.Imm)
	case Load:
		fmt.Fprintf(&b, "%v, [%s]", in.Dst, fmtAddr(in.A, in.Imm))
	case Store:
		fmt.Fprintf(&b, "[%s], %v", fmtAddr(in.A, in.Imm), in.B)
	case GAddr:
		fmt.Fprintf(&b, "%v, &%s", in.Dst, in.Target)
	case Alloc:
		if in.A == NoReg {
			fmt.Fprintf(&b, "%v, %d", in.Dst, in.Imm)
		} else {
			fmt.Fprintf(&b, "%v, %v", in.Dst, in.A)
		}
	case Free:
		fmt.Fprintf(&b, "%v", in.A)
	case Br:
		fmt.Fprintf(&b, "%v, %s, %s", in.A, in.Target, in.Target2)
	case Jmp, SptFork:
		fmt.Fprintf(&b, "%s", in.Target)
	case Call:
		args := make([]string, len(in.Args))
		for i, r := range in.Args {
			args[i] = r.String()
		}
		fmt.Fprintf(&b, "%v, %s(%s)", in.Dst, in.Target, strings.Join(args, ", "))
	case Ret:
		fmt.Fprintf(&b, "%v", in.A)
	default:
		fmt.Fprintf(&b, "%v, %v, %v", in.Dst, in.A, in.B)
	}
	return strings.TrimRight(b.String(), " ")
}

// Block is a basic block: zero or more non-terminator instructions followed
// by exactly one terminator (Br, Jmp or Ret).
type Block struct {
	Label  string
	Instrs []Instr
}

// Term returns the block's terminator instruction.
func (b *Block) Term() *Instr { return &b.Instrs[len(b.Instrs)-1] }

// Succs appends the labels of the block's successors to dst and returns it.
func (b *Block) Succs(dst []string) []string {
	t := b.Term()
	switch t.Op {
	case Br:
		return append(dst, t.Target, t.Target2)
	case Jmp:
		return append(dst, t.Target)
	}
	return dst
}

// InstrRef identifies one instruction inside a function by position.
type InstrRef struct {
	Block int // index into Func.Blocks
	Index int // index into Block.Instrs
}

// Func is an IR function. Parameters arrive in registers 0..NumParams-1; the
// return value is passed through Ret.
type Func struct {
	Name      string
	NumParams int
	NumRegs   int
	Blocks    []*Block

	// Derived by Finalize:
	blockIdx map[string]int // label -> Blocks index
	Linear   []InstrRef     // instruction id -> position
}

// NumInstrs returns the total instruction count of the function.
func (f *Func) NumInstrs() int { return len(f.Linear) }

// BlockIndex returns the index of the block with the given label, or -1.
func (f *Func) BlockIndex(label string) int {
	if i, ok := f.blockIdx[label]; ok {
		return i
	}
	return -1
}

// BlockByLabel returns the block with the given label, or nil.
func (f *Func) BlockByLabel(label string) *Block {
	if i, ok := f.blockIdx[label]; ok {
		return f.Blocks[i]
	}
	return nil
}

// InstrByID returns a pointer to the instruction with the given id.
func (f *Func) InstrByID(id int) *Instr {
	ref := f.Linear[id]
	return &f.Blocks[ref.Block].Instrs[ref.Index]
}

// Finalize (re)computes the block index and dense instruction ids. It must
// be called after any structural mutation and before validation, execution
// or analysis.
func (f *Func) Finalize() {
	f.blockIdx = make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		f.blockIdx[b.Label] = i
	}
	f.Linear = f.Linear[:0]
	id := 0
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			b.Instrs[ii].ID = id
			f.Linear = append(f.Linear, InstrRef{Block: bi, Index: ii})
			id++
		}
	}
}

// Clone returns a deep copy of the function (Finalize already applied).
func (f *Func) Clone() *Func {
	nf := &Func{Name: f.Name, NumParams: f.NumParams, NumRegs: f.NumRegs}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{Label: b.Label, Instrs: make([]Instr, len(b.Instrs))}
		copy(nb.Instrs, b.Instrs)
		for j := range nb.Instrs {
			if len(nb.Instrs[j].Args) > 0 {
				nb.Instrs[j].Args = append([]Reg(nil), nb.Instrs[j].Args...)
			}
		}
		nf.Blocks[i] = nb
	}
	nf.Finalize()
	return nf
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// Global is a named region of statically allocated words.
type Global struct {
	Name string
	Size int64   // in words
	Init []int64 // optional initial contents (len <= Size)
}

// Program is a complete IR program: an entry function, callees and globals.
type Program struct {
	Funcs   []*Func
	Globals []Global
	Entry   string // entry function name; it takes no parameters

	funcIdx map[string]int
	fp      atomic.Pointer[string] // memoized Fingerprint; never copied
}

// Fingerprint returns a content hash of the program: the sha256 of its
// canonical disassembly, so two structurally identical programs share one
// fingerprint however they were produced. It is memoized on the program
// (a clone computes its own); callers must not mutate a program after
// fingerprinting it. A nil program has the empty fingerprint.
func (p *Program) Fingerprint() string {
	if p == nil {
		return ""
	}
	if fp := p.fp.Load(); fp != nil {
		return *fp
	}
	sum := sha256.Sum256([]byte(p.Disasm()))
	fp := hex.EncodeToString(sum[:])
	p.fp.Store(&fp) // racing computations store the same value
	return fp
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	if i, ok := p.funcIdx[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// EntryFunc returns the entry function.
func (p *Program) EntryFunc() *Func { return p.Func(p.Entry) }

// Finalize finalizes every function and rebuilds the function index.
func (p *Program) Finalize() {
	p.funcIdx = make(map[string]int, len(p.Funcs))
	for i, f := range p.Funcs {
		f.Finalize()
		p.funcIdx[f.Name] = i
	}
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	np := &Program{Entry: p.Entry}
	np.Funcs = make([]*Func, len(p.Funcs))
	for i, f := range p.Funcs {
		np.Funcs[i] = f.Clone()
	}
	np.Globals = make([]Global, len(p.Globals))
	for i, g := range p.Globals {
		ng := g
		ng.Init = append([]int64(nil), g.Init...)
		np.Globals[i] = ng
	}
	np.Finalize()
	return np
}

// NumInstrs returns the total static instruction count across all functions.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Disasm renders the whole program as assembly-like text. The output is
// the canonical textual IR: Parse reads it back into an equivalent program
// (instruction ids are informational and ignored by the parser).
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".entry %s\n", p.Entry)
	// Globals are emitted in declaration order: their addresses are
	// assigned in this order at load time, so preserving it keeps parsed
	// programs bit-identical in behaviour (not just equivalent).
	for _, g := range p.Globals {
		fmt.Fprintf(&b, ".global %s %d", g.Name, g.Size)
		for i, v := range g.Init {
			if i%12 == 0 {
				b.WriteString("\n.init")
			}
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteByte('\n')
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "\nfunc %s(params=%d, regs=%d):\n", f.Name, f.NumParams, f.NumRegs)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s:\n", blk.Label)
			for i := range blk.Instrs {
				fmt.Fprintf(&b, "\t%3d: %s\n", blk.Instrs[i].ID, blk.Instrs[i].String())
			}
		}
	}
	return b.String()
}
