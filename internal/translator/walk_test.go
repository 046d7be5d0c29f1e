package translator

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"slices"
	"testing"
)

// contains is the list membership test TestDirectiveTableCells uses.
var contains = slices.Contains[[]string]

// everyKind holds each Stmt and Expr kind of ast.go, a declaration with
// an initializer and a depend item.
const everyKind = `
double a[4];
int main() {
	int i, n = 2;
	double s;
	{ s = -1.0; }
	printf("%d\n", n);
	i++;
	for (i = 0; i < n; i++) { if (i > 1) { break; } else { continue; } }
	while (n) { n = n ? 0 : 1; }
#pragma omp parallel
	{
#pragma omp task depend(out: a[0])
		{ a[0] = 1.0; }
	}
	return 0;
}`

// The walk reaches every node kind ast.go declares, so an analysis
// written as a visitor sees all of them; a kind added to ast.go fails
// here until the program above holds it.
func TestWalkVisitsEveryNodeKind(t *testing.T) {
	fset := gotoken.NewFileSet()
	f, err := goparser.ParseFile(fset, "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"*translator.VarDecl": 0, "*translator.Depend": 0}
	stmts, exprs := 0, 0
	for _, decl := range f.Decls {
		fd, ok := decl.(*goast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "stmt" && fd.Name.Name != "expr" {
			continue
		}
		recv := fd.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name
		want["*translator."+recv] = 0
		if fd.Name.Name == "stmt" {
			stmts++
		} else {
			exprs++
		}
	}
	if stmts != 11 || exprs != 8 {
		t.Errorf("ast.go declares %d Stmt and %d Expr kinds, want 11 and 8", stmts, exprs)
	}
	prog := mustParse(t, everyKind)
	for _, fn := range prog.Funcs {
		walk(fn.Body, func(n any) bool {
			want[fmt.Sprintf("%T", n)]++
			return true
		})
	}
	for kind, seen := range want {
		if seen == 0 {
			t.Errorf("walk never visited a %s", kind)
		}
	}
}

// A visitor that returns false skips the node's children, and only them.
func TestWalkSkipsChildren(t *testing.T) {
	prog := mustParse(t, everyKind)
	var idents []string
	walk(prog.Funcs[0].Body, func(n any) bool {
		switch x := n.(type) {
		case *OmpStmt, *VarDecl:
			return false
		case *Ident:
			idents = append(idents, x.Name)
		}
		return true
	})
	if want := []string{"s", "n", "i", "n", "i", "n", "n", "n"}; !slices.Equal(idents, want) {
		t.Errorf("identifiers visited = %v, want %v", idents, want)
	}
}
