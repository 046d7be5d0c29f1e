package translator

import (
	"fmt"
	"go/format"
	"strings"
)

// Options configure a translation.
type Options struct {
	// SmallThreshold is the hybridization threshold in bytes (§5.2.1);
	// zero selects the paper's 256.
	SmallThreshold int
	// Package is the emitted package name; empty selects "main".
	Package string
}

// Translate compiles OpenMP-C source into a Go program against the
// public parade API. The emitted program parses -nodes/-tpn/-cpus/-mode
// flags, so one translation runs under every cluster configuration.
func Translate(src string, opts Options) (string, error) {
	prog, err := Parse(src)
	if err != nil {
		return "", err
	}
	if err := checkTaskCycles(prog); err != nil {
		return "", err
	}
	if opts.SmallThreshold == 0 {
		opts.SmallThreshold = 256
	}
	if opts.Package == "" {
		opts.Package = "main"
	}
	g := &generator{
		prog:      prog,
		threshold: opts.SmallThreshold,
		arrays:    map[string]*VarDecl{},
		scalars:   map[string]bool{},
		types:     map[string]Type{},
		funcs:     map[string]*FuncDecl{},
		renames:   map[string]string{},
	}
	return g.run(opts)
}

// generator holds translation state.
type generator struct {
	prog      *Program
	threshold int

	arrays  map[string]*VarDecl // shared DSM arrays by name
	scalars map[string]bool     // hybrid Scalar variables by name
	types   map[string]Type     // scalar/param element types
	funcs   map[string]*FuncDecl
	renames map[string]string // reduction accumulator renaming

	buf    strings.Builder
	depth  int
	ctx    string // "m" in serial sections, "tc" inside regions
	region bool

	inMain bool

	usesMath    bool
	usesFmt     bool
	usesB2i     bool
	usesTernary bool
	siteSeq     int

	// err is the first error found while rendering an expression of
	// main (the expression renderers return strings, not errors; helpers
	// index no arrays, checkPure rejects that).
	err error
}

// fail records err unless an earlier error is already recorded.
func (g *generator) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

func (g *generator) p(format string, args ...any) {
	g.buf.WriteString(strings.Repeat("\t", g.depth))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

func (g *generator) run(opts Options) (string, error) {
	var mainFn *FuncDecl
	for _, fn := range g.prog.Funcs {
		if fn.Name == "main" {
			mainFn = fn
			continue
		}
		g.funcs[fn.Name] = fn
	}
	if mainFn == nil {
		return "", fmt.Errorf("translator: no main function")
	}
	g.scalars = scalarTargets(g.prog)

	// Classify file-scope declarations and main-local declarations:
	// arrays are shared DSM arrays, scalars are replicated locals unless
	// a critical/atomic/single body targets them (hybrid Scalars).
	var arrayDecls, scalarDecls []*VarDecl
	classify := func(d *VarDecl) {
		if len(d.Dims) > 0 {
			g.arrays[d.Name] = d
			arrayDecls = append(arrayDecls, d)
			return
		}
		g.types[d.Name] = d.Elem
		scalarDecls = append(scalarDecls, d)
	}
	for _, d := range g.prog.Decls {
		classify(d)
	}
	for _, d := range mainFn.Body.Decls {
		classify(d)
	}

	// Body first (into a scratch buffer) so import usage is known.
	body := &generator{
		prog: g.prog, threshold: g.threshold,
		arrays: g.arrays, scalars: g.scalars, types: g.types,
		funcs: g.funcs, renames: map[string]string{},
		depth: 2, ctx: "m", inMain: true,
	}
	for _, d := range arrayDecls {
		body.genArrayAlloc(d)
	}
	for _, d := range scalarDecls {
		body.genScalarDecl(d)
	}
	for _, s := range mainFn.Body.Stmts {
		if err := body.genStmt(s); err != nil {
			return "", err
		}
		if body.err != nil {
			return "", body.err
		}
	}

	// Helper functions (must be pure: no omp, no shared data).
	helpers := &generator{
		prog: g.prog, threshold: g.threshold,
		arrays: g.arrays, scalars: g.scalars, types: map[string]Type{},
		funcs: g.funcs, renames: map[string]string{},
	}
	for _, fn := range g.prog.Funcs {
		if fn.Name == "main" {
			continue
		}
		if err := helpers.genHelper(fn); err != nil {
			return "", err
		}
	}

	// Assemble the file.
	g.p("// Code generated by parade-translate from OpenMP C source. DO NOT EDIT.")
	g.p("//")
	g.p("// The OpenMP directives of the original program were lowered with the")
	g.p("// ParADE translation rules (paper §4): hybrid criticals/atomics and")
	g.p("// broadcast singles for statically analyzable small data, collective")
	g.p("// reductions (merged when possible), static for-scheduling.")
	g.p("package %s", opts.Package)
	g.p("")
	g.p("import (")
	g.depth++
	g.p("\"flag\"")
	if body.usesFmt || helpers.usesFmt {
		g.p("\"fmt\"")
	}
	if body.usesMath || helpers.usesMath {
		g.p("\"math\"")
	}
	g.p("\"log\"")
	g.p("")
	g.p("\"parade\"")
	g.depth--
	g.p(")")
	g.p("")
	if body.usesB2i || helpers.usesB2i {
		g.p("// b2i is C's boolean-as-int convention.")
		g.p("func b2i(b bool) int {")
		g.depth++
		g.p("if b {")
		g.depth++
		g.p("return 1")
		g.depth--
		g.p("}")
		g.p("return 0")
		g.depth--
		g.p("}")
		g.p("")
	}
	if body.usesTernary || helpers.usesTernary {
		g.p("// ternary is C's conditional operator.")
		g.p("func ternary[T any](c bool, a, b T) T {")
		g.depth++
		g.p("if c {")
		g.depth++
		g.p("return a")
		g.depth--
		g.p("}")
		g.p("return b")
		g.depth--
		g.p("}")
		g.p("")
	}
	g.buf.WriteString(helpers.buf.String())
	g.p("func main() {")
	g.depth++
	g.p(`nodes := flag.Int("nodes", 4, "cluster nodes")`)
	g.p(`tpn := flag.Int("tpn", 1, "threads per node")`)
	g.p(`cpus := flag.Int("cpus", 2, "CPUs per node")`)
	g.p(`mode := flag.String("mode", "parade", "runtime: parade or kdsm")`)
	g.p("flag.Parse()")
	g.p("cfg := parade.Config{Nodes: *nodes, ThreadsPerNode: *tpn, CPUsPerNode: *cpus, HomeMigration: true}")
	g.p(`if *mode == "kdsm" {`)
	g.depth++
	g.p("cfg.Mode = parade.SDSM")
	g.p("cfg.HomeMigration = false")
	g.depth--
	g.p("}")
	g.p("_, err := parade.Run(cfg, func(m *parade.Thread) {")
	g.buf.WriteString(body.buf.String())
	g.p("})")
	g.p("if err != nil {")
	g.depth++
	g.p("log.Fatal(err)")
	g.depth--
	g.p("}")
	g.depth--
	g.p("}")
	formatted, err := format.Source([]byte(g.buf.String()))
	if err != nil {
		// A formatting failure indicates a generator bug; return the raw
		// source so the caller can see what was produced.
		return g.buf.String(), fmt.Errorf("translator: generated code does not parse: %w", err)
	}
	return string(formatted), nil
}

// genArrayAlloc emits the shared allocation of one array declaration.
func (g *generator) genArrayAlloc(d *VarDecl) {
	dims := make([]string, len(d.Dims))
	for i, e := range d.Dims {
		dims[i] = g.expr(e, TypeInt)
	}
	alloc := "AllocF64"
	if d.Elem == TypeInt {
		alloc = "AllocI64"
	}
	g.p("%s := m.Cluster().%s(%s)", d.Name, alloc, strings.Join(dims, "*"))
	g.p("_ = %s", d.Name)
}

// genScalarDecl emits a replicated local or a hybrid Scalar variable.
func (g *generator) genScalarDecl(d *VarDecl) {
	if g.scalars[d.Name] {
		g.p("%s := m.Cluster().ScalarVar(%q)", scalarVar(d.Name), d.Name)
		if d.Init != nil {
			g.p("%s.Init(m, %s)", scalarVar(d.Name), g.expr(d.Init, TypeDouble))
		}
		return
	}
	if d.Init != nil {
		g.p("var %s %s = %s", d.Name, d.Elem.GoType(), g.expr(d.Init, d.Elem))
	} else {
		g.p("var %s %s", d.Name, d.Elem.GoType())
	}
	g.p("_ = %s", d.Name)
}

func scalarVar(name string) string { return "s_" + name }

// genHelper emits a pure helper function.
func (g *generator) genHelper(fn *FuncDecl) error {
	if err := g.checkPure(fn.Body, fn.Name); err != nil {
		return err
	}
	params := make([]string, len(fn.Params))
	for _, prm := range fn.Params {
		g.types[prm.Name] = prm.Elem
	}
	for i, prm := range fn.Params {
		params[i] = prm.Name + " " + prm.Elem.GoType()
	}
	ret := ""
	if fn.Ret != TypeVoid {
		ret = " " + fn.Ret.GoType()
	}
	g.p("func %s(%s)%s {", fn.Name, strings.Join(params, ", "), ret)
	g.depth++
	g.ctx = ""
	if err := g.genBlockInner(fn.Body); err != nil {
		return err
	}
	g.depth--
	g.p("}")
	g.p("")
	return nil
}

// checkPure verifies a helper touches no shared data and no directives.
func (g *generator) checkPure(b *Block, fname string) error {
	var bad error
	var walk func(s Stmt)
	check := func(e Expr) {
		var ew func(Expr)
		ew = func(e Expr) {
			switch x := e.(type) {
			case *Index:
				if g.arrays[x.Base] != nil {
					bad = fmt.Errorf("translator: helper %s references shared array %s (move the access into main or annotate the data private)", fname, x.Base)
				}
				for _, s := range x.Subs {
					ew(s)
				}
			case *Ident:
				if g.scalars[x.Name] {
					bad = fmt.Errorf("translator: helper %s references shared scalar %s", fname, x.Name)
				}
			case *Unary:
				ew(x.X)
			case *Binary:
				ew(x.X)
				ew(x.Y)
			case *Cond:
				ew(x.X)
				ew(x.A)
				ew(x.B)
			case *Call:
				for _, a := range x.Args {
					ew(a)
				}
			}
		}
		ew(e)
	}
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *OmpStmt:
			bad = fmt.Errorf("translator: helper %s contains an omp directive (only main may)", fname)
		case *Block:
			for _, x := range st.Stmts {
				walk(x)
			}
		case *Assign:
			check(st.LHS)
			check(st.RHS)
		case *IncDec:
			check(st.LHS)
		case *ExprStmt:
			check(st.X)
		case *ForStmt:
			check(st.Lo)
			check(st.Hi)
			walk(st.Body)
		case *WhileStmt:
			check(st.Cond)
			walk(st.Body)
		case *IfStmt:
			check(st.Cond)
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *ReturnStmt:
			if st.X != nil {
				check(st.X)
			}
		}
	}
	walk(b)
	return bad
}
