package translator

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Statement and expression generation. g.ctx is the thread-context
// variable name: "m" in serial sections, "tc" inside parallel regions,
// and "" inside pure helper functions (where no shared access exists).

func (g *generator) genBlockInner(b *Block) error {
	for _, d := range b.Decls {
		if len(d.Dims) > 0 {
			return fmt.Errorf("translator: arrays must be declared at file scope or in main (found %s)", d.Name)
		}
		g.types[d.Name] = d.Elem
		g.genScalarDecl(d)
	}
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

// nested prints head, the statements of b one level deeper, and tail.
func (g *generator) nested(head string, b *Block, tail string) error {
	g.p("%s", head)
	g.depth++
	err := g.genBlockInner(b)
	g.depth--
	g.p("%s", tail)
	return err
}

func (g *generator) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return g.nested("{", st, "}")
	case *ExprStmt:
		if call, ok := st.X.(*Call); ok {
			return g.genCallStmt(call)
		}
		g.p("_ = %s", g.expr(st.X, g.exprType(st.X)))
		return nil
	case *Assign:
		return g.genAssign(st)
	case *IncDec:
		return g.genIncDec(st)
	case *ForStmt:
		return g.genSerialFor(st)
	case *WhileStmt:
		return g.nested("for "+g.cond(st.Cond)+" {", st.Body, "}")
	case *IfStmt:
		head := "if " + g.cond(st.Cond) + " {"
		if st.Else == nil {
			return g.nested(head, st.Then, "}")
		}
		if err := g.nested(head, st.Then, "} else {"); err != nil {
			return err
		}
		g.depth++
		err := g.genBlockInner(st.Else)
		g.depth--
		g.p("}")
		return err
	case *ReturnStmt:
		if st.X != nil && !g.inMain {
			g.p("return %s", g.expr(st.X, g.exprType(st.X)))
		} else {
			// C main's exit status has no Go equivalent inside Run.
			g.p("return")
		}
		return nil
	case *BreakStmt:
		g.p("break")
		return nil
	case *ContinueStmt:
		g.p("continue")
		return nil
	case *OmpStmt:
		return g.genOmp(st)
	default:
		return fmt.Errorf("translator: unhandled statement %T", s)
	}
}

// genCallStmt lowers a call used as a statement (printf and friends).
func (g *generator) genCallStmt(call *Call) error {
	if call.Name == "printf" {
		g.usesFmt = true
		args := make([]string, len(call.Args))
		for i, a := range call.Args {
			if i == 0 {
				if lit, ok := a.(*StringLit); ok {
					args[i] = fixFormat(lit.Text)
					continue
				}
			}
			args[i] = g.expr(a, g.exprType(a))
		}
		g.p("fmt.Printf(%s)", strings.Join(args, ", "))
		return nil
	}
	g.p("%s", g.expr(call, g.exprType(call)))
	return nil
}

// fixFormat converts C printf conversions that Go's fmt spells
// differently.
func fixFormat(s string) string {
	s = strings.ReplaceAll(s, "%lf", "%f")
	s = strings.ReplaceAll(s, "%le", "%e")
	s = strings.ReplaceAll(s, "%lg", "%g")
	s = strings.ReplaceAll(s, "%ld", "%d")
	s = strings.ReplaceAll(s, "%i", "%d")
	s = strings.ReplaceAll(s, "%u", "%d")
	return s
}

// genAssign lowers assignments to locals, hybrid scalars, and shared
// array elements.
func (g *generator) genAssign(st *Assign) error {
	switch lhs := st.LHS.(type) {
	case *Ident:
		if g.scalars[lhs.Name] && g.renames[lhs.Name] == "" {
			sv := scalarVar(lhs.Name)
			switch st.Op {
			case "=":
				if g.region {
					g.p("%s.Set(%s, %s)", sv, g.ctx, g.expr(st.RHS, TypeDouble))
				} else {
					g.p("%s.Init(%s, %s)", sv, g.ctx, g.expr(st.RHS, TypeDouble))
				}
			case "+=":
				g.p("%s.Add(%s, %s)", sv, g.ctx, g.expr(st.RHS, TypeDouble))
			case "-=":
				g.p("%s.Add(%s, -(%s))", sv, g.ctx, g.expr(st.RHS, TypeDouble))
			default:
				g.p("%s.Set(%s, %s.Get(%s) %s %s)", sv, g.ctx, sv, g.ctx,
					strings.TrimSuffix(st.Op, "="), g.expr(st.RHS, TypeDouble))
			}
			return nil
		}
		g.p("%s %s %s", cmp.Or(g.renames[lhs.Name], lhs.Name), st.Op, g.expr(st.RHS, g.identType(lhs.Name)))
		return nil
	case *Index:
		arr := g.arrays[lhs.Base]
		if arr == nil {
			return fmt.Errorf("translator: assignment to undeclared array %s", lhs.Base)
		}
		val := g.expr(st.RHS, arr.Elem)
		if st.Op != "=" {
			val = fmt.Sprintf("%s %s %s", g.exprRaw(lhs), strings.TrimSuffix(st.Op, "="), val)
		}
		if arr.Elem == TypeInt {
			val = "int64(" + val + ")"
		}
		g.p("%s.Set(%s, %s, %s)", lhs.Base, g.ctx, g.flatIndex(arr, lhs), val)
		return nil
	default:
		return fmt.Errorf("translator: unsupported assignment target %T", st.LHS)
	}
}

func (g *generator) genIncDec(st *IncDec) error {
	op := "+"
	if st.Op == "--" {
		op = "-"
	}
	switch lhs := st.LHS.(type) {
	case *Ident:
		if g.scalars[lhs.Name] && g.renames[lhs.Name] == "" {
			g.p("%s.Add(%s, %s1)", scalarVar(lhs.Name), g.ctx, op)
			return nil
		}
		g.p("%s%s", cmp.Or(g.renames[lhs.Name], lhs.Name), st.Op)
		return nil
	case *Index:
		arr := g.arrays[lhs.Base]
		if arr == nil {
			return fmt.Errorf("translator: %s of undeclared array %s", st.Op, lhs.Base)
		}
		idx := g.flatIndex(arr, lhs)
		g.p("%s.Set(%s, %s, %s.Get(%s, %s) %s 1)", lhs.Base, g.ctx, idx, lhs.Base, g.ctx, idx, op)
		return nil
	default:
		return fmt.Errorf("translator: unsupported %s target %T", st.Op, st.LHS)
	}
}

// genSerialFor lowers a non-worksharing counted loop.
func (g *generator) genSerialFor(st *ForStmt) error {
	hi := g.expr(st.Hi, TypeInt)
	rel := "<"
	if st.LessEq {
		rel = "<="
	}
	head := fmt.Sprintf("for %s = %s; %s %s %s; %s++ {", st.Var, g.expr(st.Lo, TypeInt), st.Var, rel, hi, st.Var)
	return g.nested(head, st.Body, "}")
}

// genOmp lowers one directive (§4's translation rules).
func (g *generator) genOmp(st *OmpStmt) error {
	if g.ctx == "tt" && st.Dir.Kind != DirTask {
		// A task body runs on whichever thread pops it, outside team
		// lockstep, so team collectives would deadlock there. Nested
		// task spawns are the one directive that composes.
		return fmt.Errorf("line %d: %v directive inside a task body is not supported", st.Line, st.Dir.Kind)
	}
	owned := append(append([]string{}, st.Dir.Private...), st.Dir.FirstPrivate...)
	for _, r := range st.Dir.Reductions {
		owned = append(owned, r.Vars...)
	}
	for i, v := range append(owned, st.Dir.Shared...) {
		_, scalar := g.types[v]
		switch {
		case !scalar && g.arrays[v] == nil:
			return fmt.Errorf("line %d: %s in a data-sharing clause is not declared", st.Line, v)
		case i < len(owned) && (g.arrays[v] != nil || g.scalars[v]):
			// Arrays and the scalars a critical, atomic or single updates
			// are shared objects; the generator has no per-thread copy.
			return fmt.Errorf("line %d: %s is shared data and cannot be private, firstprivate or a reduction variable", st.Line, v)
		}
	}
	switch st.Dir.Kind {
	case DirFor, DirCritical, DirAtomic, DirSingle, DirTarget, DirTaskwait:
		if g.ctx != "tc" {
			return fmt.Errorf("line %d: omp %v outside a parallel region", st.Line, st.Dir.Kind)
		}
	}
	switch st.Dir.Kind {
	case DirParallel:
		return g.genParallel(st.Dir, st.Body.(*Block), nil)
	case DirParallelFor:
		f := st.Body.(*ForStmt)
		return g.genParallel(st.Dir, &Block{Stmts: []Stmt{}}, f)
	case DirFor:
		return g.genOmpFor(st.Dir, st.Body.(*ForStmt))
	case DirCritical:
		return g.genCritical(st)
	case DirAtomic:
		return g.genAtomic(st)
	case DirSingle:
		return g.genSingle(st)
	case DirMaster:
		return g.nested(g.ctx+".Master(func() {", st.Body.(*Block), "})")
	case DirBarrier:
		g.p("%s.Barrier()", g.ctx)
		return nil
	case DirTask, DirTarget:
		return g.genTask(st)
	case DirTaskwait:
		g.p("tc.Taskwait()")
		return nil
	default:
		return fmt.Errorf("line %d: unsupported directive %v", st.Line, st.Dir.Kind)
	}
}

// genParallel emits a fork-join region; loop non-nil means the combined
// `parallel for` form.
func (g *generator) genParallel(dir Directive, body *Block, loop *ForStmt) error {
	if g.ctx != "m" {
		return fmt.Errorf("translator: nested parallel regions are not supported (paper §4.3)")
	}
	g.p("m.Parallel(func(tc *parade.Thread) {")
	g.depth++
	prevCtx, prevRegion := g.ctx, g.region
	g.ctx, g.region = "tc", true

	// Replicated-local semantics: every outer scalar the region reads is
	// shadowed (firstprivate); reduction variables are captured so their
	// combined value escapes the region; private() gets fresh locals.
	reds := map[string]string{}
	for _, r := range dir.Reductions {
		for _, v := range r.Vars {
			reds[v] = r.Op
		}
	}
	// Reduction variables of nested work-sharing directives also escape
	// the region (their combined value is identical on every thread), so
	// they must not be shadowed either.
	collectNestedReductions(body, reds)
	// Declarations anywhere inside the region (including nested task and
	// target bodies) are genuinely region-local: they need no firstprivate
	// shadow, and the outer scope may not even have such a variable.
	declared := map[string]bool{}
	collectDeclared(body, declared)
	if loop != nil {
		collectDeclared(loop.Body, declared)
	}
	var refs []string
	for name := range g.collectScalarRefs(body, loop) {
		refs = append(refs, name)
	}
	slices.Sort(refs)
	for _, name := range refs {
		if reds[name] != "" || g.scalars[name] || slices.Contains(dir.Private, name) || declared[name] {
			continue
		}
		g.p("%s := %s // firstprivate copy (replicated-local semantics)", name, name)
		g.p("_ = %s", name)
	}
	for _, name := range dir.Private {
		t := g.identType(name)
		g.p("var %s %s // private", name, t.GoType())
		g.p("_ = %s", name)
	}

	// Region-level reduction clauses (reduction on `parallel` itself,
	// when the loop form is not combined): private accumulators combine
	// once at region end.
	var regionReds []Reduction
	if loop == nil {
		regionReds = dir.Reductions
	}
	g.siteSeq++
	accs := g.openReductions(regionReds, g.siteSeq, "region reduction accumulator")

	var err error
	if loop != nil {
		err = g.genOmpFor(dir, loop)
	} else {
		err = g.genBlockInner(body)
	}

	g.closeReductions(accs)
	g.ctx, g.region = prevCtx, prevRegion
	g.depth--
	g.p("})")
	return err
}

// genOmpFor emits a statically scheduled work-sharing loop with its
// reduction clauses. When the loop's only shared writes are reduction
// variables, the implicit barrier is elided: the reduction collective
// synchronizes the team (the paper's barrier-saving rule). Otherwise
// the for keeps its barrier so page flushes happen.
func (g *generator) genOmpFor(dir Directive, loop *ForStmt) error {
	g.siteSeq++
	seq := g.siteSeq
	// Each thread's post-combine overwrites the variable with the same
	// value, so the pre-construct value is captured once, before the loop.
	reds := g.openReductions(dir.Reductions, seq, "reduction accumulator")

	hi := g.expr(loop.Hi, TypeInt)
	if loop.LessEq {
		hi = "(" + hi + ")+1"
	}
	// Clauses become functional options on the one For entry point.
	var opts []string
	if dir.Dynamic {
		kind := "Dynamic"
		if dir.Guided {
			kind = "Guided"
		}
		chunk := dir.ChunkSize
		if chunk == 0 {
			chunk = 1
		}
		// Chunk-server instances are keyed by site name; number the site
		// so distinct loops never share a server.
		opts = append(opts,
			fmt.Sprintf("parade.WithName(%q)", fmt.Sprintf("dyn_%d", seq)),
			fmt.Sprintf("parade.WithSchedule(parade.%s, %d)", kind, chunk))
		if dir.NoWait {
			opts = append(opts, "parade.Nowait()")
		}
	} else if dir.NoWait || (len(reds) > 0 && !g.writesSharedArray(loop.Body)) {
		// nowait, explicit or from the barrier-saving rule: a loop whose
		// only shared writes are reduction variables needs no flush — the
		// reduction collective below synchronizes the team.
		opts = append(opts, "parade.Nowait()")
	}
	g.p("tc.For(%s, %s, func(%s int) {", g.expr(loop.Lo, TypeInt), hi, loop.Var)
	g.depth++
	savedType, had := g.types[loop.Var]
	g.types[loop.Var] = TypeInt
	err := g.genBlockInner(loop.Body)
	if had {
		g.types[loop.Var] = savedType
	} else {
		delete(g.types, loop.Var)
	}
	g.depth--
	if len(opts) > 0 {
		g.p("}, %s)", strings.Join(opts, ", "))
	} else {
		g.p("})")
	}
	if err != nil {
		return err
	}

	g.closeReductions(reds)
	return nil
}

// redVar is one reduction variable of a construct: its accumulator and
// its value captured before the construct.
type redVar struct {
	name, op, acc, orig string
	typ                 Type
}

// reductionOps gives each reduction operator its runtime collective, its
// identity for a double and an int accumulator, and how the reduced
// value combines with the captured one for a double and an int variable.
var reductionOps = map[string]struct{ collective, idDouble, idInt, combineDouble, combineInt string }{
	"+":   {"OpSum", "0.0", "0", "%s + %s", "%s + %s"},
	"*":   {"OpProd", "1.0", "1", "%s * %s", "%s * %s"},
	"max": {"OpMax", "math.Inf(-1)", "-1 << 53", "math.Max(%s, %s)", "max(%s, %s)"},
	"min": {"OpMin", "math.Inf(1)", "1 << 53", "math.Min(%s, %s)", "min(%s, %s)"},
}

// openReductions starts the reductions of a construct: each variable
// gets an accumulator set to its operator's identity, typed like the
// variable, and the body is renamed onto the accumulator.
func (g *generator) openReductions(reds []Reduction, seq int, label string) []redVar {
	var out []redVar
	for _, r := range reds {
		for _, v := range r.Vars {
			rv := redVar{name: v, op: r.Op, typ: g.identType(v),
				acc: fmt.Sprintf("__red%d_%s", seq, v), orig: fmt.Sprintf("__orig%d_%s", seq, v)}
			id := reductionOps[r.Op].idDouble
			if rv.typ == TypeInt {
				id = reductionOps[r.Op].idInt
			}
			g.usesMath = g.usesMath || strings.HasPrefix(id, "math.")
			g.p("%s := %s // %s (%s)", rv.acc, id, label, r.Op)
			g.p("%s := %s", rv.orig, v)
			g.renames[v] = rv.acc
			g.types[rv.acc] = rv.typ
			out = append(out, rv)
		}
	}
	return out
}

// closeReductions combines each accumulator across the team with one
// collective and folds the result into the captured value. The
// collective reduces float64s, so an int reduction is exact only while
// every partial result is below 2^53 in magnitude. For the same reason
// the int identities of max and min are -2^53 and 2^53: math.MaxInt
// rounds to 2^63 as a float64, which does not convert back to an int.
func (g *generator) closeReductions(reds []redVar) {
	for _, rv := range reds {
		delete(g.renames, rv.name)
		delete(g.types, rv.acc)
		op := reductionOps[rv.op]
		combine := op.combineDouble
		reduced := fmt.Sprintf("tc.Reduce(%q, parade.%s, %s)", rv.name, op.collective, rv.acc)
		if rv.typ == TypeInt {
			combine = op.combineInt
			reduced = fmt.Sprintf("int(tc.Reduce(%q, parade.%s, float64(%s)))", rv.name, op.collective, rv.acc)
		}
		g.usesMath = g.usesMath || strings.HasPrefix(combine, "math.")
		g.p("%s = "+combine, rv.name, rv.orig, reduced)
	}
}

// genTask lowers `#pragma omp task` and `#pragma omp target` onto the
// deferred-task runtime: the body becomes a closure pushed on the
// spawning node's deque (or delivered to the device node's deque, for
// target), executed later by whichever thread pops it, and joined by the
// next taskwait or barrier. C task semantics capture firstprivate
// variables by value at the spawn point; Go closures capture by
// reference, so each firstprivate gets an explicit site-numbered copy
// that the closure body is renamed to use. Depend/map/name/priority
// clauses become functional options on the spawn call; subscripts in
// depend items are rendered in the spawning scope, so the firstprivate
// renames apply to them too (capture-at-spawn semantics).
func (g *generator) genTask(st *OmpStmt) error {
	if g.ctx != "tc" && g.ctx != "tt" {
		return fmt.Errorf("line %d: omp %v outside a parallel region", st.Line, st.Dir.Kind)
	}
	body := st.Body.(*Block)
	g.siteSeq++
	seq := g.siteSeq
	saved := map[string]string{}
	for _, name := range st.Dir.FirstPrivate {
		cp := fmt.Sprintf("__task%d_%s", seq, name)
		g.p("%s := %s // firstprivate capture at spawn", cp, cmp.Or(g.renames[name], name))
		saved[name] = g.renames[name]
		g.renames[name] = cp
		g.types[cp] = g.identType(name)
	}
	opts, err := g.taskOpts(st.Dir, st.Line)
	if err != nil {
		return err
	}
	head := fmt.Sprintf("%s.Task(", g.ctx)
	if st.Dir.Kind == DirTarget {
		head = fmt.Sprintf("%s.Target(%d, ", g.ctx, st.Dir.Device)
	}
	g.p("%sfunc(tt *parade.Thread) float64 {", head)
	g.depth++
	prevCtx := g.ctx
	g.ctx = "tt"
	for _, name := range st.Dir.Private {
		g.p("var %s %s // private", name, g.identType(name).GoType())
		g.p("_ = %s", name)
	}
	err = g.genBlockInner(body)
	g.ctx = prevCtx
	g.p("return 0")
	g.depth--
	if len(opts) > 0 {
		g.p("}, %s)", strings.Join(opts, ", "))
	} else {
		g.p("})")
	}
	for name, prev := range saved {
		delete(g.types, fmt.Sprintf("__task%d_%s", seq, name))
		if prev == "" {
			delete(g.renames, name)
		} else {
			g.renames[name] = prev
		}
	}
	return err
}

// taskOpts renders a task/target directive's graph and offload clauses
// as parade option arguments.
func (g *generator) taskOpts(dir Directive, line int) ([]string, error) {
	var opts []string
	for _, dep := range dir.Depends {
		if dep.Kind == "task" {
			hs := make([]string, len(dep.Tasks))
			for i, n := range dep.Tasks {
				hs[i] = fmt.Sprintf("parade.DepTask(%q)", n)
			}
			// Completion edges ignore the access kind; In is canonical.
			opts = append(opts, fmt.Sprintf("parade.WithDepend(parade.In, %s)", strings.Join(hs, ", ")))
			continue
		}
		kind := map[string]string{"in": "In", "out": "Out", "inout": "InOut"}[dep.Kind]
		hs := make([]string, len(dep.Items))
		for i, it := range dep.Items {
			h, err := g.depHandle(it, line)
			if err != nil {
				return nil, err
			}
			hs[i] = h
		}
		opts = append(opts, fmt.Sprintf("parade.WithDepend(parade.%s, %s)", kind, strings.Join(hs, ", ")))
	}
	for _, mc := range dir.Maps {
		md := map[string]string{"to": "MapTo", "from": "MapFrom", "tofrom": "MapToFrom"}[mc.Dir]
		for _, v := range mc.Vars {
			if g.arrays[v] == nil {
				return nil, fmt.Errorf("line %d: map(%s: %s): only shared arrays are mappable", line, mc.Dir, v)
			}
		}
		opts = append(opts, fmt.Sprintf("parade.WithMap(parade.%s, %s)", md, strings.Join(mc.Vars, ", ")))
	}
	if dir.TaskName != "" {
		opts = append(opts, fmt.Sprintf("parade.WithTaskName(%q)", dir.TaskName))
	}
	if dir.Priority != 0 {
		opts = append(opts, fmt.Sprintf("parade.WithPriority(%d)", dir.Priority))
	}
	return opts, nil
}

// depHandle renders one depend list item as a parade.DepHandle
// expression: a whole variable becomes a named abstract object, an array
// element becomes its shared-memory address.
func (g *generator) depHandle(e Expr, line int) (string, error) {
	switch x := e.(type) {
	case *Ident:
		return fmt.Sprintf("parade.DepName(%q)", x.Name), nil
	case *Index:
		arr := g.arrays[x.Base]
		if arr == nil {
			return "", fmt.Errorf("line %d: depend item %s is not a shared array", line, x.Base)
		}
		return fmt.Sprintf("parade.DepAddr(%s.Addr(%s))", x.Base, g.flatIndex(arr, x)), nil
	default:
		return "", fmt.Errorf("line %d: unsupported depend item %T", line, e)
	}
}

// genCritical lowers a critical directive: the hybrid collective path
// when the block is lexically analyzable (Fig. 2 right), the SDSM lock
// path otherwise (Fig. 2 left).
func (g *generator) genCritical(st *OmpStmt) error {
	name := st.Dir.Name
	if name == "" {
		g.siteSeq++
		name = fmt.Sprintf("crit_%d", g.siteSeq)
	}
	body := st.Body.(*Block)
	head := fmt.Sprintf("tc.Critical(%q, nil, func() {", name)
	if vars, ok := g.analyzableCritical(body); ok {
		svars := make([]string, len(vars))
		for i, v := range vars {
			svars[i] = scalarVar(v)
		}
		head = fmt.Sprintf("tc.Critical(%q, []*parade.Scalar{%s}, func() {", name, strings.Join(svars, ", "))
	}
	return g.nested(head, body, "})")
}

// genAtomic lowers the atomic directive onto one collective (§4.2).
func (g *generator) genAtomic(st *OmpStmt) error {
	body := st.Body.(*Block)
	name, delta, negate, ok := g.atomicUpdate(body)
	if !ok {
		return fmt.Errorf("line %d: atomic body must be `x += expr`, `x -= expr`, `x++` or `x--`", st.Line)
	}
	if !g.scalars[name] {
		return fmt.Errorf("line %d: atomic target %s must be a scalar variable", st.Line, name)
	}
	d := g.expr(delta, TypeDouble)
	if negate {
		d = "-(" + d + ")"
	}
	g.p("tc.Atomic(%s, %s)", scalarVar(name), d)
	return nil
}

// genSingle lowers the single directive: broadcast form for a small
// analyzable initialization (Fig. 3 right), flag+lock+barrier otherwise.
func (g *generator) genSingle(st *OmpStmt) error {
	g.siteSeq++
	name := fmt.Sprintf("single_%d", g.siteSeq)
	body := st.Body.(*Block)
	head := fmt.Sprintf("tc.SingleBarrier(%q, func() {", name)
	if target, ok := g.analyzableSingle(body); ok {
		head = fmt.Sprintf("tc.Single(%q, %s, func() {", name, scalarVar(target))
	}
	return g.nested(head, body, "})")
}

// collectScalarRefs gathers the names of the known scalars and the loop
// variables referenced inside a region body (for firstprivate
// shadowing). Declaration initializers and depend items are not read.
func (g *generator) collectScalarRefs(b *Block, loop *ForStmt) map[string]bool {
	refs := map[string]bool{}
	visit := func(n any) bool {
		switch x := n.(type) {
		case *VarDecl, *Depend:
			return false
		case *Ident:
			if _, known := g.types[x.Name]; known {
				refs[x.Name] = true
			}
		case *ForStmt:
			refs[x.Var] = true
		}
		return true
	}
	walk(b, visit)
	if loop != nil {
		walk(loop, visit)
	}
	return refs
}

// collectDeclared records every variable declared in b or any block
// nested inside it (loop bodies, branches, task and target bodies).
func collectDeclared(b *Block, declared map[string]bool) {
	walk(b, func(n any) bool {
		if d, ok := n.(*VarDecl); ok {
			declared[d.Name] = true
		}
		return true
	})
}

// collectNestedReductions records the reduction variables of directives
// nested inside a region body.
func collectNestedReductions(b *Block, reds map[string]string) {
	walk(b, func(n any) bool {
		if st, ok := n.(*OmpStmt); ok {
			for _, r := range st.Dir.Reductions {
				for _, v := range r.Vars {
					reds[v] = r.Op
				}
			}
		}
		return true
	})
}
