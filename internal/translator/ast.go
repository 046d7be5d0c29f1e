package translator

// The parse tree. Nodes carry just enough structure for the directive
// analysis and the code generator; this is a translator, not a general
// C front end.

// Type is a scalar element type of the subset.
type Type int

// Element types.
const (
	TypeDouble Type = iota
	TypeInt
	TypeVoid
)

func (t Type) String() string {
	switch t {
	case TypeDouble:
		return "double"
	case TypeInt:
		return "int"
	default:
		return "void"
	}
}

// GoType returns the Go spelling of the type.
func (t Type) GoType() string {
	switch t {
	case TypeDouble:
		return "float64"
	case TypeInt:
		return "int"
	default:
		return ""
	}
}

// Program is a translation unit.
type Program struct {
	Decls []*VarDecl // file-scope variables (shared by default)
	Funcs []*FuncDecl
}

// VarDecl declares one variable (scalar or constant-bound array).
type VarDecl struct {
	Name string
	Elem Type
	Dims []Expr // empty for scalars; constant expressions for arrays
	Init Expr   // optional initializer (scalars only)
	Line int
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    Type
	Params []*VarDecl
	Body   *Block
	Line   int
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Block is a compound statement with its local declarations.
type Block struct {
	Decls []*VarDecl
	Stmts []Stmt
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct{ X Expr }

// Assign is lhs op rhs where op is "=", "+=", "-=", "*=", "/=".
type Assign struct {
	LHS Expr
	Op  string
	RHS Expr
}

// IncDec is lhs++ or lhs--.
type IncDec struct {
	LHS Expr
	Op  string // "++" or "--"
}

// ForStmt is the canonical counted loop: Var = Lo; Var < Hi; Var++.
// General C for loops outside this form are rejected inside omp-for
// directives and lowered as while-style loops elsewhere.
type ForStmt struct {
	Var    string
	Lo, Hi Expr
	LessEq bool // condition uses <=
	Body   *Block
	Line   int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *Block
}

// IfStmt is an if with optional else.
type IfStmt struct {
	Cond Expr
	Then *Block
	Else *Block // nil if absent
}

// ReturnStmt returns an optional expression.
type ReturnStmt struct{ X Expr }

// BreakStmt breaks the innermost loop.
type BreakStmt struct{}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{}

// OmpStmt is an OpenMP directive applied to an optional body.
type OmpStmt struct {
	Dir  Directive
	Body Stmt // Block, ForStmt, or nil (barrier)
	Line int
}

func (*Block) stmt()        {}
func (*ExprStmt) stmt()     {}
func (*Assign) stmt()       {}
func (*IncDec) stmt()       {}
func (*ForStmt) stmt()      {}
func (*WhileStmt) stmt()    {}
func (*IfStmt) stmt()       {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*OmpStmt) stmt()      {}

// DirKind is the OpenMP directive kind.
type DirKind int

// Supported OpenMP 1.0 directives.
const (
	DirParallel DirKind = iota
	DirFor
	DirParallelFor
	DirCritical
	DirAtomic
	DirSingle
	DirMaster
	DirBarrier
	DirTask
	DirTaskwait
	DirTarget
)

func (d DirKind) String() string {
	if int(d) < len(directives) {
		return directives[d].words
	}
	return "?"
}

// Reduction is one reduction(op:vars) clause entry.
type Reduction struct {
	Op   string // "+", "*", "max", "min"
	Vars []string
}

// Depend is one depend(kind: list) clause entry. The data kinds
// (in/out/inout) carry Items — Ident or Index expressions naming the
// depended-on variables or array elements; the task kind carries Tasks —
// the names of sibling tasks registered with name().
type Depend struct {
	Kind  string // "in", "out", "inout", "task"
	Items []Expr
	Tasks []string
}

// MapClause is one map(dir: vars) clause entry of a target directive.
type MapClause struct {
	Dir  string // "to", "from", "tofrom"
	Vars []string
}

// Directive is a parsed `#pragma omp` line.
type Directive struct {
	Kind         DirKind
	Name         string // critical section name, if given
	Private      []string
	FirstPrivate []string
	Shared       []string
	Reductions   []Reduction
	NoWait       bool
	Dynamic      bool // schedule(dynamic|guided) — the runtime extensions
	Guided       bool // guided variant of Dynamic
	ChunkSize    int  // dynamic chunk / guided minimum; 0 selects the default

	// Task-graph and offload clauses (task and target directives).
	Depends  []Depend    // depend(kind: list), in clause order
	Maps     []MapClause // map(dir: vars) — target only
	Device   int         // device(n) — target only; 0 when absent
	TaskName string      // name(x) — registers the task for DepTask edges
	Priority int         // priority(n); 0 when absent
}

// Expr is an expression node.
type Expr interface{ expr() }

// Ident references a variable.
type Ident struct{ Name string }

// Number is a numeric literal (original spelling preserved).
type Number struct{ Text string }

// StringLit is a string literal including quotes.
type StringLit struct{ Text string }

// Index is base[i0][i1]... .
type Index struct {
	Base string
	Subs []Expr
	Line int
}

// Call is a function call.
type Call struct {
	Name string
	Args []Expr
}

// Unary is op X ( -, !, + ).
type Unary struct {
	Op string
	X  Expr
}

// Binary is X op Y.
type Binary struct {
	Op   string
	X, Y Expr
}

// Cond is C's ternary X ? A : B.
type Cond struct {
	X, A, B Expr
}

func (*Ident) expr()     {}
func (*Number) expr()    {}
func (*StringLit) expr() {}
func (*Index) expr()     {}
func (*Call) expr()      {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*Cond) expr()      {}

// walk visits node and everything under it in source order, in the
// manner of go/ast.Inspect: visit is called with each Stmt and Expr node,
// with each *VarDecl of a block (its dimensions and initializer are its
// children) and with each *Depend of a directive (its items are its
// children), and a false result skips that node's children. A
// directive's depend clauses come before its body.
func walk(node any, visit func(node any) bool) {
	if !visit(node) {
		return
	}
	exprs := func(es ...Expr) {
		for _, e := range es {
			if e != nil {
				walk(e, visit)
			}
		}
	}
	switch n := node.(type) {
	case *VarDecl:
		exprs(n.Dims...)
		exprs(n.Init)
	case *Depend:
		exprs(n.Items...)
	case *Block:
		for _, d := range n.Decls {
			walk(d, visit)
		}
		for _, s := range n.Stmts {
			walk(s, visit)
		}
	case *ExprStmt:
		exprs(n.X)
	case *Assign:
		exprs(n.LHS, n.RHS)
	case *IncDec:
		exprs(n.LHS)
	case *ForStmt:
		exprs(n.Lo, n.Hi)
		walk(n.Body, visit)
	case *WhileStmt:
		exprs(n.Cond)
		walk(n.Body, visit)
	case *IfStmt:
		exprs(n.Cond)
		walk(n.Then, visit)
		if n.Else != nil {
			walk(n.Else, visit)
		}
	case *ReturnStmt:
		exprs(n.X)
	case *OmpStmt:
		for i := range n.Dir.Depends {
			walk(&n.Dir.Depends[i], visit)
		}
		if n.Body != nil {
			walk(n.Body, visit)
		}
	case *Index:
		exprs(n.Subs...)
	case *Call:
		exprs(n.Args...)
	case *Unary:
		exprs(n.X)
	case *Binary:
		exprs(n.X, n.Y)
	case *Cond:
		exprs(n.X, n.A, n.B)
	}
}
