package translator

// Directive analysis (§4.2, §5.2.1): decide which synchronization
// directives are "statically analyzable" and therefore lowered to
// message-passing collectives, and classify every variable as a shared
// DSM array, a hybrid small scalar, or a replicated thread-local.

// mathFuncs are C library calls allowed inside analyzable blocks and
// mapped onto Go's math package.
var mathFuncs = map[string]string{
	"sqrt": "math.Sqrt", "fabs": "math.Abs", "sin": "math.Sin",
	"cos": "math.Cos", "exp": "math.Exp", "log": "math.Log",
	"pow": "math.Pow", "floor": "math.Floor", "ceil": "math.Ceil",
	"tan": "math.Tan", "atan": "math.Atan",
}

// ompFuncs are OpenMP runtime calls with direct Thread equivalents.
var ompFuncs = map[string]bool{
	"omp_get_thread_num": true, "omp_get_num_threads": true,
	"omp_get_wtime": true,
}

// scalarTargets collects the names of scalars assigned inside critical,
// atomic or single bodies: those become hybrid Scalar variables; every
// other scalar is a replicated local.
func scalarTargets(prog *Program) map[string]bool {
	targets := map[string]bool{}
	record := func(n any) bool {
		var lhs Expr
		switch st := n.(type) {
		case *Assign:
			lhs = st.LHS
		case *IncDec:
			lhs = st.LHS
		}
		if id, ok := lhs.(*Ident); ok {
			targets[id.Name] = true
		}
		return true
	}
	for _, fn := range prog.Funcs {
		walk(fn.Body, func(n any) bool {
			st, ok := n.(*OmpStmt)
			if !ok || st.Dir.Kind != DirCritical && st.Dir.Kind != DirAtomic && st.Dir.Kind != DirSingle {
				return true
			}
			walk(st.Body, record)
			return false
		})
	}
	return targets
}

// analyzableCritical reports whether a critical body is lexically
// analyzable per §4.2: every statement is a commutative accumulation
// into a scalar (x += e, x -= e, x++ or x = x + e / x = e + x), the
// right-hand sides call only whitelisted math functions, and no shared
// array is written. It returns the updated scalars in order.
func (g *generator) analyzableCritical(b *Block) ([]string, bool) {
	if b == nil || len(b.Decls) != 0 {
		return nil, false
	}
	var vars []string
	seen := map[string]bool{}
	for _, s := range b.Stmts {
		name, ok := g.commutativeUpdate(s)
		if !ok {
			return nil, false
		}
		if !seen[name] {
			seen[name] = true
			vars = append(vars, name)
		}
	}
	if len(vars) == 0 {
		return nil, false
	}
	// The paper's threshold check (§5.2.1): total guarded size must stay
	// under the small-structure threshold to use the update protocol.
	if 8*len(vars) > g.threshold {
		return nil, false
	}
	return vars, true
}

// commutativeUpdate matches one statement of the form the update
// protocol can merge, returning the target scalar name.
func (g *generator) commutativeUpdate(s Stmt) (string, bool) {
	switch st := s.(type) {
	case *Assign:
		id, ok := st.LHS.(*Ident)
		if !ok || g.arrays[id.Name] != nil {
			return "", false
		}
		if !g.pureExpr(st.RHS) {
			return "", false
		}
		switch st.Op {
		case "+=", "-=":
			return id.Name, true
		case "=":
			// x = x + e or x = e + x
			if bin, ok := st.RHS.(*Binary); ok && bin.Op == "+" {
				if l, ok := bin.X.(*Ident); ok && l.Name == id.Name {
					return id.Name, true
				}
				if r, ok := bin.Y.(*Ident); ok && r.Name == id.Name {
					return id.Name, true
				}
			}
			return "", false
		default:
			return "", false
		}
	case *IncDec:
		id, ok := st.LHS.(*Ident)
		if !ok || g.arrays[id.Name] != nil {
			return "", false
		}
		return id.Name, true
	default:
		return "", false
	}
}

// pureExpr reports whether e reads no shared arrays and calls only
// whitelisted math functions. The subscripts of a private array are not
// examined.
func (g *generator) pureExpr(e Expr) bool {
	pure := true
	walk(e, func(n any) bool {
		switch x := n.(type) {
		case *Index:
			pure = pure && g.arrays[x.Base] == nil
			return false
		case *Call:
			if _, ok := mathFuncs[x.Name]; !ok && !isCast(x.Name) {
				pure = false
			}
		}
		return pure
	})
	return pure
}

func isCast(name string) bool {
	return name == "__cast_float64" || name == "__cast_int"
}

// analyzableSingle reports whether a single body initializes exactly one
// hybrid scalar (and nothing else), the Fig. 3 broadcast case.
func (g *generator) analyzableSingle(b *Block) (string, bool) {
	if b == nil || len(b.Decls) != 0 || len(b.Stmts) != 1 {
		return "", false
	}
	asg, ok := b.Stmts[0].(*Assign)
	if !ok || asg.Op != "=" {
		return "", false
	}
	id, ok := asg.LHS.(*Ident)
	if !ok || g.arrays[id.Name] != nil || !g.scalars[id.Name] {
		return "", false
	}
	if !g.pureExpr(asg.RHS) {
		return "", false
	}
	return id.Name, true
}

// atomicUpdate matches the atomic directive's expression-statement forms.
func (g *generator) atomicUpdate(b *Block) (name string, delta Expr, negate bool, ok bool) {
	if b == nil || len(b.Stmts) != 1 {
		return "", nil, false, false
	}
	switch st := b.Stmts[0].(type) {
	case *Assign:
		id, isID := st.LHS.(*Ident)
		if !isID || g.arrays[id.Name] != nil {
			return "", nil, false, false
		}
		switch st.Op {
		case "+=":
			return id.Name, st.RHS, false, g.pureExpr(st.RHS)
		case "-=":
			return id.Name, st.RHS, true, g.pureExpr(st.RHS)
		}
	case *IncDec:
		id, isID := st.LHS.(*Ident)
		if !isID {
			return "", nil, false, false
		}
		return id.Name, &Number{Text: "1"}, st.Op == "--", true
	}
	return "", nil, false, false
}

// writesSharedArray reports whether any statement in the subtree stores
// into a shared DSM array (used to decide whether a reduction for-loop
// still needs its implicit barrier).
func (g *generator) writesSharedArray(s Stmt) bool {
	writes := false
	walk(s, func(n any) bool {
		var lhs Expr
		switch st := n.(type) {
		case *Assign:
			lhs = st.LHS
		case *IncDec:
			lhs = st.LHS
		}
		if idx, ok := lhs.(*Index); ok && g.arrays[idx.Base] != nil {
			writes = true
		}
		return !writes
	})
	return writes
}
