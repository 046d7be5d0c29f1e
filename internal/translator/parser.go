package translator

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse builds the parse tree of one source file.
func Parse(src string) (*Program, error) {
	toks, err := NewLexer(src).Lex()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.program()
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token { // next token after cur
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(text string) bool {
	if p.cur().Text == text && p.cur().Kind != TokString {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("line %d: expected %q, found %q", p.cur().Line, text, p.cur().Text)
	}
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: "+format, append([]any{p.cur().Line}, args...)...)
}

// program parses file-scope declarations and function definitions.
func (p *Parser) program() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		if p.cur().Kind == TokPragma {
			return nil, p.errf("pragma at file scope is not supported")
		}
		typ, ok := p.typeSpec()
		if !ok {
			return nil, p.errf("expected declaration, found %q", p.cur().Text)
		}
		name := p.cur()
		if name.Kind != TokIdent {
			return nil, p.errf("expected identifier after type, found %q", name.Text)
		}
		p.advance()
		if p.cur().Text == "(" {
			fn, err := p.funcRest(typ, name)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		decls, err := p.varRest(typ, name)
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, decls...)
	}
	return prog, nil
}

// typeSpec consumes a type specifier; returns ok=false if not at one.
func (p *Parser) typeSpec() (Type, bool) {
	// Ignore const/static/unsigned qualifiers.
	for p.cur().Text == "const" || p.cur().Text == "static" || p.cur().Text == "unsigned" {
		p.advance()
	}
	switch p.cur().Text {
	case "double", "float":
		p.advance()
		return TypeDouble, true
	case "int", "long", "char":
		p.advance()
		for p.cur().Text == "long" || p.cur().Text == "int" {
			p.advance()
		}
		return TypeInt, true
	case "void":
		p.advance()
		return TypeVoid, true
	}
	return TypeVoid, false
}

// varRest parses the remainder of a variable declaration whose type and
// first name were consumed: optional array bounds, initializer, and
// further comma-separated declarators.
func (p *Parser) varRest(typ Type, name Token) ([]*VarDecl, error) {
	var out []*VarDecl
	for {
		d := &VarDecl{Name: name.Text, Elem: typ, Line: name.Line}
		for p.accept("[") {
			dim, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			d.Dims = append(d.Dims, dim)
		}
		if p.accept("=") {
			init, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		out = append(out, d)
		if p.accept(",") {
			name = p.cur()
			if name.Kind != TokIdent {
				return nil, p.errf("expected identifier in declaration list")
			}
			p.advance()
			continue
		}
		break
	}
	return out, p.expect(";")
}

// funcRest parses a function definition after `type name`.
func (p *Parser) funcRest(ret Type, name Token) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name.Text, Ret: ret, Line: name.Line}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.accept(")") {
		for {
			if p.accept("void") {
				break
			}
			typ, ok := p.typeSpec()
			if !ok {
				return nil, p.errf("expected parameter type")
			}
			pn := p.cur()
			if pn.Kind != TokIdent {
				return nil, p.errf("expected parameter name")
			}
			p.advance()
			fn.Params = append(fn.Params, &VarDecl{Name: pn.Text, Elem: typ, Line: pn.Line})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// block parses `{ decls... stmts... }` (declarations may interleave).
func (p *Parser) block() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.accept("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected end of file in block")
		}
		if typ, ok := p.typeSpec(); ok {
			name := p.cur()
			if name.Kind != TokIdent {
				return nil, p.errf("expected identifier in declaration")
			}
			p.advance()
			decls, err := p.varRest(typ, name)
			if err != nil {
				return nil, err
			}
			b.Decls = append(b.Decls, decls...)
			continue
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

// stmt parses one statement.
func (p *Parser) stmt() (Stmt, error) {
	tok := p.cur()
	switch {
	case tok.Kind == TokPragma:
		return p.ompStmt()
	case tok.Text == "{":
		return p.block()
	case tok.Text == ";":
		p.advance()
		return &Block{}, nil
	case tok.Text == "for":
		return p.forStmt()
	case tok.Text == "while":
		p.advance()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case tok.Text == "if":
		p.advance()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		ifs := &IfStmt{Cond: cond, Then: then}
		if p.accept("else") {
			els, err := p.stmtAsBlock()
			if err != nil {
				return nil, err
			}
			ifs.Else = els
		}
		return ifs, nil
	case tok.Text == "return":
		p.advance()
		if p.accept(";") {
			return &ReturnStmt{}, nil
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x}, p.expect(";")
	case tok.Text == "break":
		p.advance()
		return &BreakStmt{}, p.expect(";")
	case tok.Text == "continue":
		p.advance()
		return &ContinueStmt{}, p.expect(";")
	default:
		return p.simpleStmt(true)
	}
}

// stmtAsBlock parses a statement, wrapping single statements in a block.
func (p *Parser) stmtAsBlock() (*Block, error) {
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if b, ok := s.(*Block); ok {
		return b, nil
	}
	return &Block{Stmts: []Stmt{s}}, nil
}

// simpleStmt parses assignment / inc-dec / expression statements.
// wantSemi controls the trailing semicolon (for-headers pass false).
func (p *Parser) simpleStmt(wantSemi bool) (Stmt, error) {
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	var s Stmt
	switch op := p.cur().Text; op {
	case "=", "+=", "-=", "*=", "/=":
		p.advance()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		s = &Assign{LHS: lhs, Op: op, RHS: rhs}
	case "++", "--":
		p.advance()
		s = &IncDec{LHS: lhs, Op: op}
	default:
		s = &ExprStmt{X: lhs}
	}
	if wantSemi {
		return s, p.expect(";")
	}
	return s, nil
}

// forStmt parses a for loop, requiring the canonical counted form
// `for (i = lo; i < hi; i++)` (OpenMP 1.0's canonical loop shape).
func (p *Parser) forStmt() (Stmt, error) {
	line := p.cur().Line
	p.advance()
	if err := p.expect("("); err != nil {
		return nil, err
	}
	// Optional `int` in the init (C99 style).
	p.accept("int")
	init, err := p.simpleStmt(false)
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	asg, ok := init.(*Assign)
	if !ok || asg.Op != "=" {
		return nil, fmt.Errorf("line %d: for-init must be `var = expr`", line)
	}
	iv, ok := asg.LHS.(*Ident)
	if !ok {
		return nil, fmt.Errorf("line %d: for-init must assign a scalar variable", line)
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	bin, ok := cond.(*Binary)
	if !ok || (bin.Op != "<" && bin.Op != "<=") {
		return nil, fmt.Errorf("line %d: for-condition must be `var < bound` or `var <= bound`", line)
	}
	if id, ok := bin.X.(*Ident); !ok || id.Name != iv.Name {
		return nil, fmt.Errorf("line %d: for-condition must test the loop variable", line)
	}
	incr, err := p.simpleStmt(false)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	step, ok := incr.(*IncDec)
	if !ok || step.Op != "++" {
		return nil, fmt.Errorf("line %d: for-increment must be `var++`", line)
	}
	if id, ok := step.LHS.(*Ident); !ok || id.Name != iv.Name {
		return nil, fmt.Errorf("line %d: for-increment must step the loop variable", line)
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Var: iv.Name, Lo: asg.RHS, Hi: bin.Y, LessEq: bin.Op == "<=", Body: body, Line: line}, nil
}

// ompStmt parses a `#pragma omp` directive plus its body statement.
func (p *Parser) ompStmt() (Stmt, error) {
	tok := p.advance()
	dir, err := parseDirective(tok.Text, tok.Line)
	if err != nil {
		return nil, err
	}
	o := &OmpStmt{Dir: dir, Line: tok.Line}
	switch dir.Kind {
	case DirBarrier, DirTaskwait:
		return o, nil
	case DirFor, DirParallelFor:
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		f, ok := body.(*ForStmt)
		if !ok {
			return nil, fmt.Errorf("line %d: omp for must be followed by a canonical for loop", tok.Line)
		}
		o.Body = f
		return o, nil
	default:
		body, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		o.Body = body
		return o, nil
	}
}

// ClauseError is the typed error for an unknown, misplaced or malformed
// directive clause. Line is the pragma's source line; Col is the
// 1-based column of the offending token within the directive text (the
// part after `#pragma `, whose own indentation the preprocessor strips).
type ClauseError struct {
	Line, Col int
	Clause    string // the clause being parsed ("depend", "map", ...)
	Msg       string
}

func (e *ClauseError) Error() string {
	return fmt.Sprintf("line %d, col %d: %s clause: %s", e.Line, e.Col, e.Clause, e.Msg)
}

// argShape is the grammar of a clause's parenthesised argument.
type argShape uint8

const (
	argNone      argShape = iota // nowait
	argVars                      // (a, b)
	argKindVars                  // (word: a, b) — reduction's op, map's direction
	argKindItems                 // (kind: x, a[i][j]) — depend; task-kind items are task names
	argSchedule                  // (kind[, chunk])
	argInt                       // (n), a non-negative integer
	argIdent                     // (x) — also critical's (name)
	argKeyword                   // (word)
)

// clauses gives each clause the translator lowers its argument shape;
// for the shapes that start with a word, the words it accepts; and how
// its argument is stored in the Directive (default(shared|none) needs no
// lowering: shared is the default). schedule(runtime) and schedule(auto)
// are rejected: static is the paper's schedule (§4.3), dynamic and
// guided the runtime's extensions.
var clauses = map[string]struct {
	shape argShape
	words []string
	store func(*Directive, clauseArg)
}{
	"private":      {argVars, nil, func(d *Directive, a clauseArg) { d.Private = append(d.Private, a.vars...) }},
	"firstprivate": {argVars, nil, func(d *Directive, a clauseArg) { d.FirstPrivate = append(d.FirstPrivate, a.vars...) }},
	"shared":       {argVars, nil, func(d *Directive, a clauseArg) { d.Shared = append(d.Shared, a.vars...) }},
	"reduction": {argKindVars, []string{"+", "*", "max", "min"}, func(d *Directive, a clauseArg) {
		d.Reductions = append(d.Reductions, Reduction{Op: a.word, Vars: a.vars})
	}},
	"schedule": {argSchedule, []string{"static", "dynamic", "guided"}, func(d *Directive, a clauseArg) {
		d.Dynamic, d.Guided, d.ChunkSize = a.word != "static", a.word == "guided", a.n
	}},
	"depend": {argKindItems, []string{"in", "out", "inout", "task"}, func(d *Directive, a clauseArg) {
		dep := Depend{Kind: a.word, Items: a.items}
		if a.word == "task" {
			dep = Depend{Kind: a.word, Tasks: a.vars}
		}
		d.Depends = append(d.Depends, dep)
	}},
	"map": {argKindVars, []string{"to", "from", "tofrom"}, func(d *Directive, a clauseArg) {
		d.Maps = append(d.Maps, MapClause{Dir: a.word, Vars: a.vars})
	}},
	"device":   {argInt, nil, func(d *Directive, a clauseArg) { d.Device = a.n }},
	"priority": {argInt, nil, func(d *Directive, a clauseArg) { d.Priority = a.n }},
	"name":     {argIdent, nil, func(d *Directive, a clauseArg) { d.TaskName = a.word }},
	"default":  {argKeyword, []string{"shared", "none"}, func(*Directive, clauseArg) {}},
	"nowait":   {argNone, nil, func(d *Directive, _ clauseArg) { d.NoWait = true }},
}

const (
	parallelClauses = "private firstprivate shared default reduction"
	forClauses      = "private firstprivate reduction schedule nowait"
)

// directives is the directive table, indexed by DirKind: each
// directive's spelling after `omp` and the clauses it takes. A row lists
// only clauses the code generator lowers, so it is the directive's
// OpenMP 2.5 clause set (OpenMP 4.5 for task and target) less what the
// generator would ignore: single takes neither nowait nor its data
// clauses, for takes no lastprivate, parallel no copyin, if or
// num_threads. The departures from the specification are
//   - parallel for is the union of the parallel and for rows, so it
//     also takes nowait;
//   - schedule(static) takes no chunk: the runtime's static schedule is
//     always one block per thread;
//   - name, and priority on target, are this translator's task-graph
//     extensions.
var directives = [...]struct{ words, clauses string }{
	DirParallel:    {"parallel", parallelClauses},
	DirFor:         {"for", forClauses},
	DirParallelFor: {"parallel for", parallelClauses + " " + forClauses},
	DirCritical:    {"critical", ""},
	DirAtomic:      {"atomic", ""},
	DirSingle:      {"single", ""},
	DirMaster:      {"master", ""},
	DirBarrier:     {"barrier", ""},
	DirTask:        {"task", "private firstprivate shared depend name priority"},
	DirTaskwait:    {"taskwait", ""},
	DirTarget:      {"target", "private firstprivate depend map device name priority"},
}

// parseDirective parses the text after `#pragma` against the directive
// table: it looks up the directive word or words, then reads each
// clause with its shape's reader and stores it in the Directive.
func parseDirective(text string, line int) (Directive, error) {
	var d Directive
	words, cols := tokenizePragma(text)
	s := &pragmaScanner{words: words, cols: cols, line: line}
	if s.next() != "omp" {
		return d, fmt.Errorf("line %d: only `#pragma omp` is supported (got %q)", line, text)
	}
	n := 0 // the longest directive spelling that matches
	for k, row := range directives {
		spelled := strings.Fields(row.words)
		if len(spelled) > n && slices.Equal(spelled, words[1:min(len(words), 1+len(spelled))]) {
			d.Kind, n = DirKind(k), len(spelled)
		}
	}
	if n == 0 {
		return d, fmt.Errorf("line %d: unsupported omp directive %q", line, s.peek())
	}
	s.i += n
	if d.Kind == DirCritical && s.peek() == "(" {
		a, err := s.read("name")
		if err != nil {
			return d, err
		}
		d.Name = a.word
	}
	named := map[string]bool{} // variables of the data-sharing clauses so far
	for s.i < len(words) {
		kw := s.i
		c := s.next()
		_, known := clauses[c]
		switch {
		case !known && isIdent(c):
			return d, s.errAt(kw, c, "unsupported clause")
		case !known:
			return d, s.errAt(kw, c, "unexpected %q", c)
		case !slices.Contains(strings.Fields(directives[d.Kind].clauses), c):
			return d, s.errAt(kw, c, "the %v directive does not take %s", d.Kind, c)
		}
		a, err := s.read(c)
		if err != nil {
			return d, err
		}
		switch c {
		case "private", "firstprivate", "shared", "reduction":
			for k, v := range a.vars {
				if named[v] {
					return d, s.errAt(a.at[k], c, "%s is already named in a data-sharing clause", v)
				}
				named[v] = true
			}
		}
		clauses[c].store(&d, a)
	}
	return d, nil
}

// pragmaScanner walks the words of one directive for parseDirective.
type pragmaScanner struct {
	words []string
	cols  []int
	i     int // index of the next word
	line  int
}

func (s *pragmaScanner) peek() string {
	if s.i < len(s.words) {
		return s.words[s.i]
	}
	return ""
}

// next consumes one word; at the end it returns "" and stays there, so
// s.i-1 is always the word just read (or the last word).
func (s *pragmaScanner) next() string {
	w := s.peek()
	if s.i < len(s.words) {
		s.i++
	}
	return w
}

// errAt returns the ClauseError for word idx, or for the column just past
// the last word when the directive ended early.
func (s *pragmaScanner) errAt(idx int, clause, format string, args ...any) error {
	col := 1
	switch {
	case idx < len(s.cols):
		col = s.cols[idx]
	case len(s.cols) > 0:
		col = s.cols[len(s.cols)-1] + len(s.words[len(s.words)-1])
	}
	return &ClauseError{Line: s.line, Col: col, Clause: clause, Msg: fmt.Sprintf(format, args...)}
}

func (s *pragmaScanner) expect(want, clause string) error {
	if w := s.next(); w != want {
		return s.errAt(s.i-1, clause, "expected %q, found %q", want, w)
	}
	return nil
}

// clauseArg is one clause's argument; which fields are set depends on
// the clause's shape.
type clauseArg struct {
	word  string   // the op, kind, direction, keyword or identifier
	n     int      // the integer, or schedule's chunk (0 when absent)
	vars  []string // the list's variables (an item's base name)
	items []Expr   // the list as *Ident or, for subscripted items, *Index
	at    []int    // each list item's word index
}

// read reads clause c's argument with its shape's reader.
func (s *pragmaScanner) read(c string) (clauseArg, error) {
	spec := clauses[c]
	var a clauseArg
	if spec.shape == argNone {
		return a, nil
	}
	kw := s.i - 1
	if err := s.expect("(", c); err != nil {
		return a, err
	}
	var err error
	switch spec.shape {
	case argVars:
		err = s.list(&a, c, kw, false)
	case argKindVars, argKindItems:
		if a.word, err = s.oneOf(c, spec.words); err == nil {
			if err = s.expect(":", c); err == nil {
				err = s.list(&a, c, kw, spec.shape == argKindItems && a.word != "task")
			}
		}
	case argSchedule:
		if a.word, err = s.oneOf(c, spec.words); err == nil && s.peek() == "," {
			s.next()
			if a.word == "static" {
				return a, s.errAt(s.i, c, "static takes no chunk: the runtime's static schedule is one block per thread")
			}
			a.n, err = s.integer(c, 1)
		}
	case argInt:
		a.n, err = s.integer(c, 0)
	case argIdent:
		if a.word = s.next(); !isIdent(a.word) {
			err = s.errAt(s.i-1, c, "want an identifier, found %q", a.word)
		}
	case argKeyword:
		a.word, err = s.oneOf(c, spec.words)
	}
	if err != nil {
		return a, err
	}
	return a, s.expect(")", c)
}

// oneOf reads one of the words a clause accepts.
func (s *pragmaScanner) oneOf(clause string, words []string) (string, error) {
	w := s.next()
	if slices.Contains(words, w) {
		return w, nil
	}
	return "", s.errAt(s.i-1, clause, "%q is not one of %s", w, strings.Join(words, ", "))
}

// integer reads an integer of at least least.
func (s *pragmaScanner) integer(clause string, least int) (int, error) {
	w := s.next()
	n, err := strconv.Atoi(w)
	if err != nil || n < least {
		return 0, s.errAt(s.i-1, clause, "want an integer of at least %d, found %q", least, w)
	}
	return n, nil
}

// list reads a non-empty comma-separated list of variables up to the
// closing parenthesis. subs lets an item carry [identifier] or [number]
// subscripts. kw is the clause word's index, where an empty list is
// reported.
func (s *pragmaScanner) list(a *clauseArg, clause string, kw int, subs bool) error {
	for s.peek() != ")" {
		if len(a.vars) > 0 {
			if err := s.expect(",", clause); err != nil {
				return err
			}
		}
		at := s.i
		name := s.next()
		if !isIdent(name) {
			return s.errAt(at, clause, "list items must be variables, found %q", name)
		}
		var idx []Expr
		for subs && s.peek() == "[" {
			s.next()
			var sub Expr
			switch w := s.next(); {
			case isIdent(w):
				sub = &Ident{Name: w}
			case w != "" && w[0] >= '0' && w[0] <= '9':
				sub = &Number{Text: w}
			default:
				return s.errAt(s.i-1, clause, "array subscript must be an identifier or number, found %q", w)
			}
			if err := s.expect("]", clause); err != nil {
				return err
			}
			idx = append(idx, sub)
		}
		var item Expr = &Ident{Name: name}
		if idx != nil {
			item = &Index{Base: name, Subs: idx, Line: s.line}
		}
		a.vars, a.items, a.at = append(a.vars, name), append(a.items, item), append(a.at, at)
	}
	if len(a.vars) == 0 {
		return s.errAt(kw, clause, "empty list")
	}
	return nil
}

// tokenizePragma splits a pragma line into words and punctuation, also
// returning each word's 1-based column within the text (for the typed
// clause errors).
func tokenizePragma(text string) ([]string, []int) {
	var out []string
	var cols []int
	cur := strings.Builder{}
	start := 0
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cols = append(cols, start+1)
			cur.Reset()
		}
	}
	for pos, r := range text {
		switch {
		case r == ' ' || r == '\t':
			flush()
		case r == '(' || r == ')' || r == ',' || r == ':' || r == '[' || r == ']':
			flush()
			out = append(out, string(r))
			cols = append(cols, pos+1)
		default:
			if cur.Len() == 0 {
				start = pos
			}
			cur.WriteRune(r)
		}
	}
	flush()
	return out, cols
}

// Expression parsing: precedence climbing.

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3, "^": 3, "&": 3,
	"==": 4, "!=": 4,
	"<": 5, "<=": 5, ">": 5, ">=": 5,
	"<<": 6, ">>": 6,
	"+": 7, "-": 7,
	"*": 8, "/": 8, "%": 8,
}

func (p *Parser) expr() (Expr, error) { return p.ternary() }

func (p *Parser) ternary() (Expr, error) {
	x, err := p.binary(1)
	if err != nil {
		return nil, err
	}
	if p.accept("?") {
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		b, err := p.ternary()
		if err != nil {
			return nil, err
		}
		return &Cond{X: x, A: a, B: b}, nil
	}
	return x, nil
}

func (p *Parser) binary(minPrec int) (Expr, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Text
		prec, ok := binPrec[op]
		if !ok || prec < minPrec || p.cur().Kind == TokString {
			return x, nil
		}
		p.advance()
		y, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y}
	}
}

func (p *Parser) unary() (Expr, error) {
	switch p.cur().Text {
	case "-", "!", "+":
		op := p.advance().Text
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			return x, nil
		}
		return &Unary{Op: op, X: x}, nil
	case "(":
		// Possible cast: (double) x — treat as conversion call.
		if p.peek().Kind == TokKeyword {
			save := p.pos
			p.advance()
			if typ, ok := p.typeSpec(); ok && p.cur().Text == ")" {
				p.advance()
				x, err := p.unary()
				if err != nil {
					return nil, err
				}
				return &Call{Name: "__cast_" + typ.GoType(), Args: []Expr{x}}, nil
			}
			p.pos = save
		}
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return x, p.expect(")")
	}
	return p.postfix()
}

func (p *Parser) postfix() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case TokNumber:
		p.advance()
		return &Number{Text: tok.Text}, nil
	case TokString:
		p.advance()
		return &StringLit{Text: tok.Text}, nil
	case TokIdent:
		p.advance()
		name := tok.Text
		if p.accept("(") {
			call := &Call{Name: name}
			if !p.accept(")") {
				for {
					arg, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		if p.cur().Text == "[" {
			idx := &Index{Base: name, Line: tok.Line}
			for p.accept("[") {
				sub, err := p.expr()
				if err != nil {
					return nil, err
				}
				if err := p.expect("]"); err != nil {
					return nil, err
				}
				idx.Subs = append(idx.Subs, sub)
			}
			return idx, nil
		}
		return &Ident{Name: name}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", tok.Text)
	}
}
