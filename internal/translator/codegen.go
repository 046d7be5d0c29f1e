package translator

import (
	"cmp"
	"fmt"
	"go/format"
	"maps"
	"slices"
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

	// late is the first name a helper cannot see. Like checkNames's
	// errors, it is reported only once the lowering succeeds, so an input
	// the lowering rejects keeps that error.
	late error
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

	var imports, support string
	if body.usesFmt || helpers.usesFmt {
		imports += "\t\"fmt\"\n"
	}
	if body.usesMath || helpers.usesMath {
		imports += "\t\"math\"\n"
	}
	if body.usesB2i || helpers.usesB2i {
		support += b2iFunc
	}
	if body.usesTernary || helpers.usesTernary {
		support += ternaryFunc
	}
	src := fmt.Sprintf(fileTemplate, opts.Package, imports, support, helpers.buf.String(), body.buf.String())
	formatted, err := format.Source([]byte(src))
	if err != nil {
		// A formatting failure indicates a generator bug; return the raw
		// source so the caller can see what was produced.
		return src, fmt.Errorf("translator: generated code does not parse: %w", err)
	}
	if err := cmp.Or(checkNames(g.prog), helpers.late); err != nil {
		return "", err
	}
	return string(formatted), nil
}

// fileTemplate is the emitted file around its variable parts: the
// package name, the optional imports, the support functions, the
// helpers, and the body of main's Run closure.
const fileTemplate = `// Code generated by parade-translate from OpenMP C source. DO NOT EDIT.
//
// The OpenMP directives of the original program were lowered with the
// ParADE translation rules (paper §4): hybrid criticals/atomics and
// broadcast singles for statically analyzable small data, collective
// reductions (merged when possible), static for-scheduling.
package %s

import (
	"flag"
%s	"log"

	"parade"
)

%s%sfunc main() {
	nodes := flag.Int("nodes", 4, "cluster nodes")
	tpn := flag.Int("tpn", 1, "threads per node")
	cpus := flag.Int("cpus", 2, "CPUs per node")
	mode := flag.String("mode", "parade", "runtime: parade or kdsm")
	flag.Parse()
	cfg := parade.Config{Nodes: *nodes, ThreadsPerNode: *tpn, CPUsPerNode: *cpus, HomeMigration: true}
	if *mode == "kdsm" {
		cfg.Mode = parade.SDSM
		cfg.HomeMigration = false
	}
	_, err := parade.Run(cfg, func(m *parade.Thread) {
%s	})
	if err != nil {
		log.Fatal(err)
	}
}
`

const b2iFunc = `// b2i is C's boolean-as-int convention.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

`

const ternaryFunc = `// ternary is C's conditional operator.
func ternary[T any](c bool, a, b T) T {
	if c {
		return a
	}
	return b
}

`

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
	if err := g.checkPure(fn); err != nil {
		return err
	}
	params := make([]string, len(fn.Params))
	for i, prm := range fn.Params {
		g.types[prm.Name] = prm.Elem
		params[i] = prm.Name + " " + prm.Elem.GoType()
	}
	ret := ""
	if fn.Ret != TypeVoid {
		ret = " " + fn.Ret.GoType()
	}
	g.ctx = ""
	err := g.nested(fmt.Sprintf("func %s(%s)%s {", fn.Name, strings.Join(params, ", "), ret), fn.Body, "}")
	g.p("")
	return err
}

// checkPure verifies a helper touches no shared data and no directives;
// the last violation found is the error. A reference to a file-scope
// variable, which the helper cannot see (they are locals of main's Run
// closure), is recorded in g.late instead.
func (g *generator) checkPure(fn *FuncDecl) error {
	local := declaredNames(fn)
	fileScope := func(name string) {
		if g.late == nil && !local[name] && slices.ContainsFunc(g.prog.Decls, func(d *VarDecl) bool { return d.Name == name }) {
			g.late = fmt.Errorf("translator: helper %s references file-scope variable %s (pass it as a parameter)", fn.Name, name)
		}
	}
	var bad error
	walk(fn.Body, func(n any) bool {
		switch x := n.(type) {
		case *OmpStmt:
			bad = fmt.Errorf("translator: helper %s contains an omp directive (only main may)", fn.Name)
			return false
		case *VarDecl:
			// The shared-data rules skip declarations; the scope rule
			// reads them.
			walk(x, func(n any) bool {
				if id, ok := n.(*Ident); ok {
					fileScope(id.Name)
				}
				return true
			})
			return false
		case *ForStmt:
			fileScope(x.Var)
		case *Index:
			if g.arrays[x.Base] != nil {
				bad = fmt.Errorf("translator: helper %s references shared array %s (move the access into main or annotate the data private)", fn.Name, x.Base)
			}
		case *Ident:
			if g.scalars[x.Name] {
				bad = fmt.Errorf("translator: helper %s references shared scalar %s", fn.Name, x.Name)
			}
			fileScope(x.Name)
		}
		return true
	})
	return bad
}

// declaredNames returns the parameters of fn and every variable declared
// anywhere in its body.
func declaredNames(fn *FuncDecl) map[string]bool {
	names := map[string]bool{}
	for _, p := range fn.Params {
		names[p.Name] = true
	}
	walk(fn.Body, func(n any) bool {
		if d, ok := n.(*VarDecl); ok {
			names[d.Name] = true
		}
		return true
	})
	return names
}

// checkNames resolves every name of the program. An identifier, array
// base or loop variable must name a variable of its scope or a function
// of the program: at file scope the file-scope variables, in a function
// those, its parameters and its declarations. A call must name a
// function of the program, printf, a math or OpenMP runtime function, or
// a cast. A bare name in a depend list is an abstract dependence object,
// not a variable, so only the subscripts of an element item resolve.
func checkNames(prog *Program) error {
	isFunc := func(name string) bool {
		return slices.ContainsFunc(prog.Funcs, func(fn *FuncDecl) bool { return fn.Name == name })
	}
	var err error
	check := func(where string, scope map[string]bool, root any) {
		resolve := func(name string) {
			if err == nil && !scope[name] && !isFunc(name) {
				err = fmt.Errorf("translator: undeclared name %s %s", name, where)
			}
		}
		var visit func(n any) bool
		visit = func(n any) bool {
			switch x := n.(type) {
			case *Depend:
				for _, it := range x.Items {
					if idx, ok := it.(*Index); ok {
						walk(idx, visit)
					}
				}
				return false
			case *ForStmt:
				resolve(x.Var)
			case *Ident:
				resolve(x.Name)
			case *Index:
				resolve(x.Base)
			case *Call:
				_, math := mathFuncs[x.Name]
				if err == nil && !isFunc(x.Name) && x.Name != "printf" && !math && !ompFuncs[x.Name] && !isCast(x.Name) {
					err = fmt.Errorf("translator: call of undeclared function %s %s", x.Name, where)
				}
			}
			return err == nil
		}
		walk(root, visit)
	}
	global := map[string]bool{}
	for _, d := range prog.Decls {
		global[d.Name] = true
	}
	for _, d := range prog.Decls {
		check("at file scope", global, d)
	}
	for _, fn := range prog.Funcs {
		scope := declaredNames(fn)
		maps.Copy(scope, global)
		check("in "+fn.Name, scope, fn.Body)
	}
	return err
}
