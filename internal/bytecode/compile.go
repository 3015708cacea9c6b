package bytecode

import "math"

// compile.go is the translation half of the compiled execution tier: each
// instruction becomes a closure with its operands pre-decoded and its
// cycle cost pre-resolved, and each straight-line span of non-memory,
// non-gated instructions becomes one fused closure (a "span") that
// executes its members back to back and charges a single compile-time
// cycle sum. Hot instruction patterns from the code generator's address
// arithmetic (LdI+Mul+Add chains and friends) are fused further into
// multi-instruction member closures, so the per-member indirect call is
// amortized over two or three instructions. The trampoline (compiled.go)
// dispatches closure-to-closure instead of switching per instruction.
//
// Translation happens per loaded program — after relocation patching, so
// Ld/St closures capture final immediates — and costs microseconds; the
// expensive artifact (the compiled image itself) stays in core.BuildCache.
// Gated instructions (Call, Ret, ParCall, RTC) call the same exec*
// helpers the classic interpreter dispatches through, so their semantics
// exist once.

// copExit tells the trampoline what a closure did.
type copExit uint8

const (
	// exRun: straight-line op done; the trampoline charges cop.cost and
	// advances pc by cop.n.
	exRun copExit = iota
	// exJump: control transfer; the closure stored the new pc in k.pc.
	// The trampoline still charges cop.cost.
	exJump
	// exFrame: Call/Ret switched frames; the trampoline reloads its
	// frame caches and resumes at the new frame's pc. Cost was charged
	// inside the closure.
	exFrame
	// exStop: the quantum is over (trap, Halt, ParCall, barrier, RTC
	// error); the closure stored the final status in k.status and left
	// f.pc at the resume point. Cost was charged inside the closure.
	exStop
)

// kern is the compiled tier's register file of execution state; closures
// receive it instead of each capturing the thread. It lives embedded in
// the Thread so a quantum allocates nothing.
type kern struct {
	t      *Thread
	f      *frame
	r      []int64
	proc   int
	pc     int
	cyc    int64
	check  int   // instructions until the next n&15 checkpoint
	done   int32 // instructions completed inside a span before an exStop
	status Status
}

// member is one span member: a closure covering one or more instructions
// that returns exRun to continue the span, or any other exit to leave it.
type member = func(k *kern) copExit

// cop is one compiled operation covering n instructions.
type cop struct {
	run  func(k *kern) copExit
	cost int64 // charged by the trampoline on exRun/exJump
	// prefix[j] is the summed cost of the first j instructions (spans
	// only; nil for singles). The trampoline uses it to decide, before
	// entering a span that straddles an n&15 checkpoint, whether the
	// classic loop would have broken at that checkpoint.
	prefix []int64
	n      int32 // instructions covered
	// pure is the offset of the span's first memory instruction (n when
	// there is none). The clock cannot advance before it, so an interior
	// checkpoint at offset j is decidable from prefix iff j <= pure; a
	// checkpoint past the first Ld/St forces single-stepping instead.
	pure int32
}

// compiledFn is one translated function.
type compiledFn struct {
	// ops is the dispatch table indexed by pc: fused closures at run
	// heads, specialized singles elsewhere.
	ops []cop
	// singles always holds the one-instruction closure for every pc;
	// the trampoline falls back to it when the remaining checkpoint
	// budget cannot cover a fused op.
	singles []cop
}

// Compiled is a fully translated program, shared read-only by every
// thread of a run.
type Compiled struct {
	fns map[*Fn]*compiledFn
}

// maxSpanLen clips spans to the classic loop's checkpoint distance (the
// clock bound is consulted every 16 instructions), so at most one
// checkpoint can fall inside a span — and that one is pre-verified by the
// trampoline against the span's cost prefix before the span is entered.
const maxSpanLen = 16

// CompileProgram translates every function of a loaded (relocated)
// program. The result is immutable and safe for concurrent use.
func CompileProgram(p *Program, costs *Costs) *Compiled {
	cp := &Compiled{fns: make(map[*Fn]*compiledFn, len(p.Fns))}
	for _, fn := range p.Fns {
		cp.fns[fn] = compileFn(fn, costs)
	}
	return cp
}

// compileFn translates one function.
func compileFn(fn *Fn, costs *Costs) *compiledFn {
	n := len(fn.Code)
	cf := &compiledFn{
		ops:     make([]cop, n),
		singles: make([]cop, n),
	}
	for pc, in := range fn.Code {
		cf.singles[pc] = mkSingle(pc, in, costs)
	}
	copy(cf.ops, cf.singles)

	// Spans: one fused closure per pc covering the straight-line range
	// from pc up to the first memory or gated instruction, with a
	// terminal branch absorbed. Every pc gets its own (suffix) span, so
	// mid-span entry after a branch or quantum break always lands on
	// valid code.
	for pc := 0; pc < n; pc++ {
		if end := spanEnd(fn.Code, pc); end-pc >= 2 {
			cf.ops[pc] = mkSpan(fn, pc, end, cf.singles, costs)
		}
	}
	return cf
}

// spanEnd returns the end (exclusive) of the span starting at pc: bare,
// trap-capable, and memory instructions, terminated by (and including) at
// most one branch, clipped to maxSpanLen. Only gated instructions end a
// span before them.
func spanEnd(code []Instr, pc int) int {
	end := pc
	for end < len(code) && end-pc < maxSpanLen {
		switch classify(code[end].Op) {
		case classBranch:
			return end + 1
		case classBare, classTrap, classMem:
		default:
			return end
		}
		end++
	}
	return end
}

// mkSpan fuses code[pc:end] into one cop. Bare instruction pairs and
// triples matching the generator's hot address-arithmetic patterns become
// single member closures. Trap-capable instructions become members that
// record, on the trap path, exactly how many instructions of the span
// completed (k.done) and the exact unflushed cycles accrued, so a
// mid-span trap is accounted precisely as the classic loop would. Memory
// instructions become members that flush the pending cycles into the
// clock exactly as their classic cases do; the trampoline then charges
// only the span's unflushed tail on exit. prefix and pure let the
// trampoline pre-verify an interior n&15 checkpoint before entering the
// span whenever the checkpoint precedes the first memory instruction.
func mkSpan(fn *Fn, pc, end int, singles []cop, costs *Costs) cop {
	w := end - pc
	// prefix[j] is the summed cost of the span's first j instructions.
	prefix := make([]int64, w+1)
	for j := 0; j < w; j++ {
		prefix[j+1] = prefix[j] + costs.tab[fn.Code[pc+j].Op]
	}
	var ms []member
	flushBase := 0 // span offset just past the last cycle-flushing member
	memAt := w     // offset of the first memory member, w if none
	for i := pc; i < end; {
		in := fn.Code[i]
		j := i - pc
		switch classify(in.Op) {
		case classBare:
			if i+2 < end &&
				classify(fn.Code[i+1].Op) == classBare &&
				classify(fn.Code[i+2].Op) == classBare {
				if m := fuse3(in, fn.Code[i+1], fn.Code[i+2]); m != nil {
					ms = append(ms, m)
					i += 3
					continue
				}
			}
			if i+1 < end && classify(fn.Code[i+1].Op) == classBare {
				if m := fuse2(in, fn.Code[i+1]); m != nil {
					ms = append(ms, m)
					i += 2
					continue
				}
			}
			// Fuse a lone bare into the following memory op (the
			// generator's compute-address-then-access shape) or the
			// terminal branch (loop tails).
			if i+1 < end && classify(fn.Code[i+1].Op) == classMem {
				j1 := j + 1
				if memAt == w {
					memAt = j1
				}
				m := fuseBareMem(in, i+1, fn.Code[i+1], prefix[j1+1]-prefix[flushBase], int32(j1))
				if m == nil {
					m = compose2x(singles[i].run,
						memMember(i+1, fn.Code[i+1], prefix[j1+1]-prefix[flushBase], int32(j1)))
				}
				ms = append(ms, m)
				flushBase = j1 + 1
				i += 2
				continue
			}
			if i+1 < end && classify(fn.Code[i+1].Op) == classBranch {
				ms = append(ms, compose2x(singles[i].run, singles[i+1].run))
				i += 2
				continue
			}
			ms = append(ms, singles[i].run)
			i++
		case classTrap:
			ms = append(ms, trapMember(i, in, prefix[j+1]-prefix[flushBase], int32(j)))
			i++
		case classMem:
			if memAt == w {
				memAt = j
			}
			m := memMember(i, in, prefix[j+1]-prefix[flushBase], int32(j))
			flushBase = j + 1
			if i+1 < end && classify(fn.Code[i+1].Op) == classMem {
				j1 := j + 1
				m = compose2x(m, memMember(i+1, fn.Code[i+1], prefix[j1+1]-prefix[flushBase], int32(j1)))
				flushBase = j1 + 1
				i++
			}
			ms = append(ms, m)
			i++
		default: // terminal branch; its single closure exits with exJump
			ms = append(ms, singles[i].run)
			i++
		}
	}
	run := ms[0]
	if len(ms) > 1 {
		mm := ms
		run = func(k *kern) copExit {
			for _, m := range mm {
				if ex := m(k); ex != exRun {
					return ex
				}
			}
			return exRun
		}
	}
	return cop{run: run, cost: prefix[w] - prefix[flushBase],
		prefix: prefix, n: int32(w), pure: int32(memAt)}
}

// memMember compiles Ld or St as a span member. flushAdd is the span's
// unflushed cost prefix through this instruction (from just past the
// previous memory member), so the flush into the clock is exactly the one
// the classic loop performs at this instruction.
func memMember(pc int, in Instr, flushAdd int64, done int32) member {
	a, b := int(in.A), int(in.B)
	imm := in.Imm
	next := pc + 1
	if in.Op == Ld {
		return func(k *kern) copExit {
			t := k.t
			sys := t.Sys
			addr := k.r[b] + imm
			if addr < 8 || addr >= sys.Brk() {
				k.cyc += flushAdd
				k.done = done
				k.f.pc = next
				k.status = t.trap(k.f, "load from invalid address %d", addr)
				return exStop
			}
			sys.AddCycles(k.proc, k.cyc+flushAdd)
			k.cyc = 0
			k.r[a] = int64(sys.LoadWord(k.proc, addr))
			return exRun
		}
	}
	return func(k *kern) copExit {
		t := k.t
		sys := t.Sys
		addr := k.r[b] + imm
		if addr < 8 || addr >= sys.Brk() {
			k.cyc += flushAdd
			k.done = done
			k.f.pc = next
			k.status = t.trap(k.f, "store to invalid address %d", addr)
			return exStop
		}
		sys.AddCycles(k.proc, k.cyc+flushAdd)
		k.cyc = 0
		sys.StoreWord(k.proc, addr, uint64(k.r[a]))
		return exRun
	}
}

// trapMember compiles a trap-capable register instruction as a span
// member. On success it charges nothing (the trampoline charges the
// span's unflushed tail); on a trap it charges cycTrap — the span's
// unflushed cost prefix through this instruction, mirroring the classic
// loop's cost-before-case accounting — and records done, the count of
// span instructions that completed before it.
func trapMember(pc int, in Instr, cycTrap int64, done int32) member {
	a, b, c := int(in.A), int(in.B), int(in.C)
	next := pc + 1
	switch in.Op {
	case DivI, FpDivI:
		hw := in.Op == DivI
		return func(k *kern) copExit {
			r := k.r
			if r[c] == 0 {
				k.cyc += cycTrap
				k.done = done
				k.f.pc = next
				k.status = k.t.trap(k.f, "integer division by zero")
				return exStop
			}
			r[a] = r[b] / r[c]
			if hw {
				k.t.HwDiv++
			} else {
				k.t.SoftDiv++
			}
			return exRun
		}
	case ModI, FpModI:
		hw := in.Op == ModI
		return func(k *kern) copExit {
			r := k.r
			if r[c] == 0 {
				k.cyc += cycTrap
				k.done = done
				k.f.pc = next
				k.status = k.t.trap(k.f, "integer modulo by zero")
				return exStop
			}
			r[a] = r[b] % r[c]
			if hw {
				k.t.HwDiv++
			} else {
				k.t.SoftDiv++
			}
			return exRun
		}
	case GetArg:
		return func(k *kern) copExit {
			f := k.f
			if b >= len(f.args) {
				k.cyc += cycTrap
				k.done = done
				f.pc = next
				k.status = k.t.trap(f, "argument %d not supplied", in.B)
				return exStop
			}
			k.r[a] = f.args[b]
			return exRun
		}
	}
	panic("trapMember: unexpected opcode " + in.Op.String())
}

// pk packs an opcode pair into a switch key for the fusion tables.
func pk(o1, o2 Op) uint32 { return uint32(o1)<<8 | uint32(o2) }

// pk3 packs an opcode triple.
func pk3(o1, o2, o3 Op) uint32 { return uint32(o1)<<16 | uint32(o2)<<8 | uint32(o3) }

// fuse2 fuses two adjacent bare instructions into one member closure, or
// returns nil when the pair is not in the fusion table. The table covers
// the pairs that dominate dynamic instruction mixes on the generated
// code — integer address arithmetic (LdI/Add/Sub/Mul in all
// combinations), the float kernel ops, and int-to-float conversion
// feeding a float op.
func fuse2(i1, i2 Instr) member {
	a1, b1, c1, m1 := int(i1.A), int(i1.B), int(i1.C), i1.Imm
	a2, b2, c2, m2 := int(i2.A), int(i2.B), int(i2.C), i2.Imm
	switch pk(i1.Op, i2.Op) {
	// Integer address arithmetic.
	case pk(LdI, LdI):
		return func(k *kern) copExit { r := k.r; r[a1] = m1; r[a2] = m2; return exRun }
	case pk(LdI, Add):
		return func(k *kern) copExit { r := k.r; r[a1] = m1; r[a2] = r[b2] + r[c2]; return exRun }
	case pk(LdI, Sub):
		return func(k *kern) copExit { r := k.r; r[a1] = m1; r[a2] = r[b2] - r[c2]; return exRun }
	case pk(LdI, Mul):
		return func(k *kern) copExit { r := k.r; r[a1] = m1; r[a2] = r[b2] * r[c2]; return exRun }
	case pk(Add, LdI):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] + r[c1]; r[a2] = m2; return exRun }
	case pk(Add, Add):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] + r[c1]; r[a2] = r[b2] + r[c2]; return exRun }
	case pk(Add, Sub):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] + r[c1]; r[a2] = r[b2] - r[c2]; return exRun }
	case pk(Add, Mul):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] + r[c1]; r[a2] = r[b2] * r[c2]; return exRun }
	case pk(Sub, LdI):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] - r[c1]; r[a2] = m2; return exRun }
	case pk(Sub, Add):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] - r[c1]; r[a2] = r[b2] + r[c2]; return exRun }
	case pk(Sub, Sub):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] - r[c1]; r[a2] = r[b2] - r[c2]; return exRun }
	case pk(Sub, Mul):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] - r[c1]; r[a2] = r[b2] * r[c2]; return exRun }
	case pk(Mul, LdI):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] * r[c1]; r[a2] = m2; return exRun }
	case pk(Mul, Add):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] * r[c1]; r[a2] = r[b2] + r[c2]; return exRun }
	case pk(Mul, Sub):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] * r[c1]; r[a2] = r[b2] - r[c2]; return exRun }
	case pk(Mul, Mul):
		return func(k *kern) copExit { r := k.r; r[a1] = r[b1] * r[c1]; r[a2] = r[b2] * r[c2]; return exRun }
	// Float kernels.
	case pk(AddF, AddF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) + ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) + ffrom(r[c2]))
			return exRun
		}
	case pk(AddF, MulF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) + ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) * ffrom(r[c2]))
			return exRun
		}
	case pk(AddF, SubF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) + ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) - ffrom(r[c2]))
			return exRun
		}
	case pk(MulF, AddF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) * ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) + ffrom(r[c2]))
			return exRun
		}
	case pk(MulF, SubF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) * ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) - ffrom(r[c2]))
			return exRun
		}
	case pk(MulF, MulF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) * ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) * ffrom(r[c2]))
			return exRun
		}
	case pk(SubF, AddF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) - ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) + ffrom(r[c2]))
			return exRun
		}
	case pk(SubF, MulF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(ffrom(r[b1]) - ffrom(r[c1]))
			r[a2] = fbits(ffrom(r[b2]) * ffrom(r[c2]))
			return exRun
		}
	// Conversion feeding (or fed by) float arithmetic.
	case pk(CvtIF, AddF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(float64(r[b1]))
			r[a2] = fbits(ffrom(r[b2]) + ffrom(r[c2]))
			return exRun
		}
	case pk(CvtIF, SubF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(float64(r[b1]))
			r[a2] = fbits(ffrom(r[b2]) - ffrom(r[c2]))
			return exRun
		}
	case pk(CvtIF, MulF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = fbits(float64(r[b1]))
			r[a2] = fbits(ffrom(r[b2]) * ffrom(r[c2]))
			return exRun
		}
	case pk(Add, CvtIF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] + r[c1]
			r[a2] = fbits(float64(r[b2]))
			return exRun
		}
	case pk(Sub, CvtIF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] - r[c1]
			r[a2] = fbits(float64(r[b2]))
			return exRun
		}
	case pk(Mul, CvtIF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] * r[c1]
			r[a2] = fbits(float64(r[b2]))
			return exRun
		}
	case pk(LdI, CvtIF):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = m1
			r[a2] = fbits(float64(r[b2]))
			return exRun
		}
	}
	return nil
}

// fuse3 fuses three adjacent bare instructions into one member closure,
// or returns nil. The table holds the dominant dynamic triples of the
// generated address arithmetic (a dynamic histogram over the workloads
// puts LdI+Mul+Add alone at ~12% of all executed instructions).
func fuse3(i1, i2, i3 Instr) member {
	a1, m1 := int(i1.A), i1.Imm
	b1, c1 := int(i1.B), int(i1.C)
	a2, b2, c2, m2 := int(i2.A), int(i2.B), int(i2.C), i2.Imm
	a3, b3, c3, m3 := int(i3.A), int(i3.B), int(i3.C), i3.Imm
	switch pk3(i1.Op, i2.Op, i3.Op) {
	case pk3(LdI, Mul, Add):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = m1
			r[a2] = r[b2] * r[c2]
			r[a3] = r[b3] + r[c3]
			return exRun
		}
	case pk3(LdI, Mul, Sub):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = m1
			r[a2] = r[b2] * r[c2]
			r[a3] = r[b3] - r[c3]
			return exRun
		}
	case pk3(LdI, Sub, Mul):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = m1
			r[a2] = r[b2] - r[c2]
			r[a3] = r[b3] * r[c3]
			return exRun
		}
	case pk3(LdI, Sub, LdI):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = m1
			r[a2] = r[b2] - r[c2]
			r[a3] = m3
			return exRun
		}
	case pk3(LdI, LdI, Sub):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = m1
			r[a2] = m2
			r[a3] = r[b3] - r[c3]
			return exRun
		}
	case pk3(Add, LdI, Mul):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] + r[c1]
			r[a2] = m2
			r[a3] = r[b3] * r[c3]
			return exRun
		}
	case pk3(Add, LdI, Sub):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] + r[c1]
			r[a2] = m2
			r[a3] = r[b3] - r[c3]
			return exRun
		}
	case pk3(Sub, LdI, Sub):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] - r[c1]
			r[a2] = m2
			r[a3] = r[b3] - r[c3]
			return exRun
		}
	case pk3(Mul, Add, LdI):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] * r[c1]
			r[a2] = r[b2] + r[c2]
			r[a3] = m3
			return exRun
		}
	case pk3(Sub, Mul, Add):
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] - r[c1]
			r[a2] = r[b2] * r[c2]
			r[a3] = r[b3] + r[c3]
			return exRun
		}
	}
	return nil
}

// mkSingle builds the one-instruction closure for in at pc. Closure
// bodies mirror the classic switch cases exactly — including charging the
// instruction's cost *before* any trap check, because the classic loop
// adds the cost table entry before entering the case.
func mkSingle(pc int, in Instr, costs *Costs) cop {
	cost := costs.tab[in.Op]
	a, b, c := int(in.A), int(in.B), int(in.C)
	imm := in.Imm
	next := pc + 1
	switch in.Op {
	case Nop:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit { return exRun }}
	case LdI:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			k.r[a] = imm
			return exRun
		}}
	case Mov:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = r[b]
			return exRun
		}}
	case Add:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = r[b] + r[c]
			return exRun
		}}
	case Sub:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = r[b] - r[c]
			return exRun
		}}
	case Mul:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = r[b] * r[c]
			return exRun
		}}
	case DivI, FpDivI:
		hw := in.Op == DivI
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			r := k.r
			if r[c] == 0 {
				k.f.pc = next
				k.status = k.t.trap(k.f, "integer division by zero")
				return exStop
			}
			r[a] = r[b] / r[c]
			if hw {
				k.t.HwDiv++
			} else {
				k.t.SoftDiv++
			}
			return exRun
		}}
	case ModI, FpModI:
		hw := in.Op == ModI
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			r := k.r
			if r[c] == 0 {
				k.f.pc = next
				k.status = k.t.trap(k.f, "integer modulo by zero")
				return exStop
			}
			r[a] = r[b] % r[c]
			if hw {
				k.t.HwDiv++
			} else {
				k.t.SoftDiv++
			}
			return exRun
		}}
	case Neg:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = -r[b]
			return exRun
		}}
	case NotL:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[b] == 0 {
				r[a] = 1
			} else {
				r[a] = 0
			}
			return exRun
		}}
	case AddF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(ffrom(r[b]) + ffrom(r[c]))
			return exRun
		}}
	case SubF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(ffrom(r[b]) - ffrom(r[c]))
			return exRun
		}}
	case MulF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(ffrom(r[b]) * ffrom(r[c]))
			return exRun
		}}
	case DivF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(ffrom(r[b]) / ffrom(r[c]))
			return exRun
		}}
	case NegF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(-ffrom(r[b]))
			return exRun
		}}
	case CvtIF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(float64(r[b]))
			return exRun
		}}
	case CvtFI:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = int64(ffrom(r[b]))
			return exRun
		}}
	case MinI:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = min64(r[b], r[c])
			return exRun
		}}
	case MaxI:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = max64(r[b], r[c])
			return exRun
		}}
	case MinF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(math.Min(ffrom(r[b]), ffrom(r[c])))
			return exRun
		}}
	case MaxF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(math.Max(ffrom(r[b]), ffrom(r[c])))
			return exRun
		}}
	case AbsI:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			v := r[b]
			if v < 0 {
				v = -v
			}
			r[a] = v
			return exRun
		}}
	case AbsF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(math.Abs(ffrom(r[b])))
			return exRun
		}}
	case SqrtF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = fbits(math.Sqrt(ffrom(r[b])))
			return exRun
		}}
	case CmpLt:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(r[b] < r[c])
			return exRun
		}}
	case CmpLe:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(r[b] <= r[c])
			return exRun
		}}
	case CmpEq:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(r[b] == r[c])
			return exRun
		}}
	case CmpNe:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(r[b] != r[c])
			return exRun
		}}
	case CmpLtF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(ffrom(r[b]) < ffrom(r[c]))
			return exRun
		}}
	case CmpLeF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(ffrom(r[b]) <= ffrom(r[c]))
			return exRun
		}}
	case CmpEqF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(ffrom(r[b]) == ffrom(r[c]))
			return exRun
		}}
	case CmpNeF:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			r[a] = b2i(ffrom(r[b]) != ffrom(r[c]))
			return exRun
		}}
	case Jmp:
		tgt := a
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			k.pc = tgt
			return exJump
		}}
	case Bz:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			if k.r[a] == 0 {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Bnz:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			if k.r[a] != 0 {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Blt:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[a] < r[b] {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Ble:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[a] <= r[b] {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Bgt:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[a] > r[b] {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Bge:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[a] >= r[b] {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Beq:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[a] == r[b] {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Bne:
		tgt := c
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			r := k.r
			if r[a] != r[b] {
				k.pc = tgt
			} else {
				k.pc = next
			}
			return exJump
		}}
	case Ld:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			t := k.t
			sys := t.Sys
			addr := k.r[b] + imm
			if addr < 8 || addr >= sys.Brk() {
				k.f.pc = next
				k.status = t.trap(k.f, "load from invalid address %d", addr)
				return exStop
			}
			sys.AddCycles(k.proc, k.cyc)
			k.cyc = 0
			k.r[a] = int64(sys.LoadWord(k.proc, addr))
			return exRun
		}}
	case St:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			t := k.t
			sys := t.Sys
			addr := k.r[b] + imm
			if addr < 8 || addr >= sys.Brk() {
				k.f.pc = next
				k.status = t.trap(k.f, "store to invalid address %d", addr)
				return exStop
			}
			sys.AddCycles(k.proc, k.cyc)
			k.cyc = 0
			sys.StoreWord(k.proc, addr, uint64(k.r[a]))
			return exRun
		}}
	case MyidOp:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			k.r[a] = int64(k.proc)
			return exRun
		}}
	case NprocsOp:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			k.r[a] = int64(k.t.Sys.Cfg.NProcs)
			return exRun
		}}
	case SetArg:
		return cop{n: 1, cost: cost, run: func(k *kern) copExit {
			f := k.f
			for len(f.outArgs) <= a {
				f.outArgs = append(f.outArgs, 0)
			}
			f.outArgs[a] = k.r[b]
			return exRun
		}}
	case GetArg:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			f := k.f
			if b >= len(f.args) {
				f.pc = next
				k.status = k.t.trap(f, "argument %d not supplied", in.B)
				return exStop
			}
			k.r[a] = f.args[b]
			return exRun
		}}
	case Call:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			k.f.pc = next
			if st := k.t.execCall(k.f, in); st != Running {
				k.status = st
				return exStop
			}
			return exFrame
		}}
	case Ret:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			if st := k.t.execRet(k.f); st != Running {
				k.status = st
				return exStop
			}
			return exFrame
		}}
	case ParCall:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			k.f.pc = next
			k.status = k.t.execParCall(k.f, in)
			return exStop
		}}
	case RTC:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			k.f.pc = next
			if st := k.t.execRTC(k.f, in, &k.cyc); st != Running {
				k.status = st
				return exStop
			}
			return exRun
		}}
	case Halt:
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			k.f.pc = next
			k.status = Done
			return exStop
		}}
	default:
		op := in.Op
		return cop{n: 1, run: func(k *kern) copExit {
			k.cyc += cost
			k.f.pc = next
			k.status = k.t.trap(k.f, "illegal opcode %v", op)
			return exStop
		}}
	}
}

// compose2x chains two members, stopping on any non-exRun exit. Used for
// tail fusion of (bare, branch) and (mem, mem) neighbors, where a
// hand-written closure would buy nothing beyond skipping one member-loop
// iteration.
func compose2x(m1, m2 member) member {
	return func(k *kern) copExit {
		if ex := m1(k); ex != exRun {
			return ex
		}
		return m2(k)
	}
}

// fuseBareMem fuses a bare instruction with the following Ld/St into one
// member. The generator's dominant subscript shape — compute an element
// address, then load or store through it — makes (Add, Ld) and (Add, St)
// the two hottest member pairs in array kernels, so those are fully
// hand-inlined; every other bare partner goes through the generic
// composition. flushAdd/done follow memMember's contract for the memory
// instruction.
func fuseBareMem(bare Instr, pcM int, mem Instr, flushAdd int64, done int32) member {
	a2, b2 := int(mem.A), int(mem.B)
	imm := mem.Imm
	next := pcM + 1
	if bare.Op == Add {
		a1, b1, c1 := int(bare.A), int(bare.B), int(bare.C)
		if mem.Op == Ld {
			return func(k *kern) copExit {
				r := k.r
				r[a1] = r[b1] + r[c1]
				t := k.t
				sys := t.Sys
				addr := r[b2] + imm
				if addr < 8 || addr >= sys.Brk() {
					k.cyc += flushAdd
					k.done = done
					k.f.pc = next
					k.status = t.trap(k.f, "load from invalid address %d", addr)
					return exStop
				}
				sys.AddCycles(k.proc, k.cyc+flushAdd)
				k.cyc = 0
				r[a2] = int64(sys.LoadWord(k.proc, addr))
				return exRun
			}
		}
		return func(k *kern) copExit {
			r := k.r
			r[a1] = r[b1] + r[c1]
			t := k.t
			sys := t.Sys
			addr := r[b2] + imm
			if addr < 8 || addr >= sys.Brk() {
				k.cyc += flushAdd
				k.done = done
				k.f.pc = next
				k.status = t.trap(k.f, "store to invalid address %d", addr)
				return exStop
			}
			sys.AddCycles(k.proc, k.cyc+flushAdd)
			k.cyc = 0
			sys.StoreWord(k.proc, addr, uint64(r[a2]))
			return exRun
		}
	}
	return nil
}
