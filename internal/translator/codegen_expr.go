package translator

import (
	"fmt"
	"strings"
)

// Expression generation with C-to-Go numeric conversion: Go requires
// explicit conversions where C converts implicitly, so the generator
// tracks the element type of every subexpression and inserts float64()
// or int() as needed. Untyped literals are left bare (Go adapts them).

// identType resolves a scalar variable's element type.
func (g *generator) identType(name string) Type {
	if g.scalars[name] {
		return TypeDouble
	}
	if t, ok := g.types[name]; ok {
		return t
	}
	return TypeDouble
}

// exprType infers the C type of an expression.
func (g *generator) exprType(e Expr) Type {
	switch x := e.(type) {
	case *Number:
		if strings.ContainsAny(x.Text, ".eE") && !strings.HasPrefix(x.Text, "0x") && !strings.HasPrefix(x.Text, "0X") {
			return TypeDouble
		}
		return TypeInt
	case *Ident:
		name := x.Name
		if r := g.renames[name]; r != "" {
			// Renames cover reduction accumulators and firstprivate task
			// captures, each typed like its source.
			if t, ok := g.types[r]; ok {
				return t
			}
			return TypeDouble
		}
		return g.identType(name)
	case *StringLit:
		return TypeVoid
	case *Index:
		if arr := g.arrays[x.Base]; arr != nil {
			return arr.Elem
		}
		return TypeDouble
	case *Unary:
		if x.Op == "!" {
			return TypeInt
		}
		return g.exprType(x.X)
	case *Binary:
		switch x.Op {
		case "<", "<=", ">", ">=", "==", "!=", "&&", "||":
			return TypeInt
		}
		if g.exprType(x.X) == TypeDouble || g.exprType(x.Y) == TypeDouble {
			return TypeDouble
		}
		return TypeInt
	case *Cond:
		return g.exprType(x.A)
	case *Call:
		switch {
		case x.Name == "__cast_int":
			return TypeInt
		case x.Name == "__cast_float64":
			return TypeDouble
		case mathFuncs[x.Name] != "":
			return TypeDouble
		case x.Name == "omp_get_thread_num" || x.Name == "omp_get_num_threads":
			return TypeInt
		case x.Name == "omp_get_wtime":
			return TypeDouble
		default:
			if fn := g.funcs[x.Name]; fn != nil {
				return fn.Ret
			}
			return TypeDouble
		}
	default:
		return TypeDouble
	}
}

// isUntypedLiteral reports whether e renders as a Go untyped constant.
func isUntypedLiteral(e Expr) bool {
	switch x := e.(type) {
	case *Number:
		return true
	case *Unary:
		return isUntypedLiteral(x.X)
	default:
		return false
	}
}

// expr renders e, converting to the wanted element type where Go needs
// an explicit conversion.
func (g *generator) expr(e Expr, want Type) string {
	s := g.exprRaw(e)
	have := g.exprType(e)
	if want == have || want == TypeVoid || isUntypedLiteral(e) {
		return s
	}
	switch want {
	case TypeDouble:
		return "float64(" + s + ")"
	case TypeInt:
		return "int(" + s + ")"
	}
	return s
}

// exprRaw renders e in its natural type.
func (g *generator) exprRaw(e Expr) string {
	switch x := e.(type) {
	case *Number:
		return strings.TrimRight(x.Text, "lLuUfF")
	case *StringLit:
		return x.Text
	case *Ident:
		name := x.Name
		if r := g.renames[name]; r != "" {
			return r
		}
		if g.scalars[name] {
			return fmt.Sprintf("%s.Get(%s)", scalarVar(name), g.ctx)
		}
		return name
	case *Index:
		arr := g.arrays[x.Base]
		if arr == nil {
			return fmt.Sprintf("/* unknown array */ %s", x.Base)
		}
		get := fmt.Sprintf("%s.Get(%s, %s)", x.Base, g.ctx, g.flatIndex(arr, x))
		if arr.Elem == TypeInt {
			return "int(" + get + ")" // int arrays hold int64s
		}
		return get
	case *Unary:
		return x.Op + "(" + g.exprRaw(x.X) + ")"
	case *Binary:
		switch x.Op {
		case "&&", "||":
			return "(" + g.cond(x.X) + " " + x.Op + " " + g.cond(x.Y) + ")"
		case "<", "<=", ">", ">=", "==", "!=":
			// Render as a C-style 0/1 int only when used as a value;
			// cond() bypasses this for control flow.
			g.usesB2i = true
			return fmt.Sprintf("b2i(%s)", g.comparison(x))
		}
		// Arithmetic: promote to double if either side is double.
		t := TypeInt
		if g.exprType(x.X) == TypeDouble || g.exprType(x.Y) == TypeDouble {
			t = TypeDouble
		}
		return "(" + g.expr(x.X, t) + " " + x.Op + " " + g.expr(x.Y, t) + ")"
	case *Cond:
		g.usesTernary = true
		t := g.exprType(x.A)
		return fmt.Sprintf("ternary(%s, %s, %s)", g.cond(x.X), g.expr(x.A, t), g.expr(x.B, t))
	case *Call:
		return g.call(x)
	default:
		return fmt.Sprintf("/* ? %T */", e)
	}
}

// comparison renders a relational operator as a Go bool expression with
// both operands promoted to a common type.
func (g *generator) comparison(x *Binary) string {
	t := TypeInt
	if g.exprType(x.X) == TypeDouble || g.exprType(x.Y) == TypeDouble {
		t = TypeDouble
	}
	return g.expr(x.X, t) + " " + x.Op + " " + g.expr(x.Y, t)
}

// cond renders e as a Go boolean (C integers in boolean context).
func (g *generator) cond(e Expr) string {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "<", "<=", ">", ">=", "==", "!=":
			return g.comparison(x)
		case "&&", "||":
			return "(" + g.cond(x.X) + " " + x.Op + " " + g.cond(x.Y) + ")"
		}
	case *Unary:
		if x.Op == "!" {
			return "!(" + g.cond(x.X) + ")"
		}
	}
	return g.expr(e, g.exprType(e)) + " != 0"
}

// call renders a function call, mapping C library and OpenMP runtime
// functions to their Go/parade equivalents.
func (g *generator) call(x *Call) string {
	switch {
	case x.Name == "__cast_float64":
		return "float64(" + g.exprRaw(x.Args[0]) + ")"
	case x.Name == "__cast_int":
		return "int(" + g.exprRaw(x.Args[0]) + ")"
	case mathFuncs[x.Name] != "":
		g.usesMath = true
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = g.expr(a, TypeDouble)
		}
		return mathFuncs[x.Name] + "(" + strings.Join(args, ", ") + ")"
	case x.Name == "omp_get_thread_num":
		return g.ctx + ".GID()"
	case x.Name == "omp_get_num_threads":
		return g.ctx + ".NumThreads()"
	case x.Name == "omp_get_wtime":
		return "(float64(" + g.ctx + ".Now()) / 1e9)"
	default:
		fn := g.funcs[x.Name]
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			want := TypeDouble
			if fn != nil && i < len(fn.Params) {
				want = fn.Params[i].Elem
			}
			args[i] = g.expr(a, want)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	}
}

// flatIndex renders the flattened element index of a multi-dimensional
// access x (row-major, matching C). A subscript count that differs from
// the array's rank is recorded as the generator's error.
func (g *generator) flatIndex(arr *VarDecl, x *Index) string {
	if len(x.Subs) != len(arr.Dims) {
		g.fail(fmt.Errorf("line %d: array %s has rank %d but is indexed with %d subscript(s)",
			x.Line, x.Base, len(arr.Dims), len(x.Subs)))
		return "0"
	}
	parts := make([]string, len(x.Subs))
	for i, sub := range x.Subs {
		term := "(" + g.expr(sub, TypeInt) + ")"
		for j := i + 1; j < len(arr.Dims); j++ {
			term += "*(" + g.expr(arr.Dims[j], TypeInt) + ")"
		}
		parts[i] = term
	}
	return strings.Join(parts, " + ")
}
