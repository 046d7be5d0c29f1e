package translator

import (
	"errors"
	"fmt"
	goast "go/ast"
	"go/importer"
	goparser "go/parser"
	gotoken "go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The type-checking oracle: translator output is checked in process with
// go/types against the compiler's export data for every package that
// output may import. `go list -export` builds that export data once per
// test process (~100 ms when the build cache is warm); each program then
// checks in a few milliseconds, where `go build` of a translated program
// would take seconds.
var oracle struct {
	once    sync.Once
	exports map[string]string // import path -> export data file
	err     error
}

func typeCheck(t testing.TB, src string) error {
	t.Helper()
	oracle.once.Do(func() {
		out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}",
			"parade", "fmt", "math", "os", "flag", "log").Output()
		if err != nil {
			oracle.err = fmt.Errorf("go list -export: %w", err)
			return
		}
		oracle.exports = map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "=")
			oracle.exports[path] = file
		}
	})
	if oracle.err != nil {
		t.Fatal(oracle.err)
	}
	fset := gotoken.NewFileSet()
	f, err := goparser.ParseFile(fset, "main.go", src, 0)
	if err != nil {
		return err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := oracle.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	_, err = conf.Check("main", fset, []*goast.File{f}, nil)
	return err
}

// intReductions reduces int variables on both reduction paths: the
// combined parallel for and a for inside a region.
const intReductions = `
int a[100];
int main() {
	int count, top, i;
	count = 0;
	top = 0;
#pragma omp parallel for reduction(+:count)
	for (i = 0; i < 100; i++) {
		count += a[i];
	}
#pragma omp parallel
	{
#pragma omp for reduction(max:top)
		for (i = 0; i < 100; i++) {
			top = top > a[i] ? top : a[i];
		}
	}
	printf("%d %d\n", count, top);
	return 0;
}`

// Every committed C source, and a program of int reductions, translates
// to Go that type-checks.
func TestTranslatedSourcesTypeCheck(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata sources (%v)", err)
	}
	srcs := map[string]string{"int reductions": intReductions}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(src)
	}
	for name, src := range srcs {
		if err := typeCheck(t, translate(t, src)); err != nil {
			t.Errorf("%s: translated program does not type-check: %v", name, err)
		}
	}
}

// An int reduction keeps an int accumulator and crosses the float64
// collective by conversion; max and min start from -2^53 and 2^53, whose
// float64 images convert back to int exactly.
func TestTranslateIntReductionLowering(t *testing.T) {
	out := translate(t, intReductions)
	for _, want := range []string{
		"__red2_count := 0 // reduction accumulator (+)",
		`count = __orig2_count + int(tc.Reduce("count", parade.OpSum, float64(__red2_count)))`,
		"__red4_top := -1 << 53 // reduction accumulator (max)",
		`top = max(__orig4_top, int(tc.Reduce("top", parade.OpMax, float64(__red4_top))))`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// clauseSamples spells one instance of each clause of the table, over the
// variables cellProgram declares.
var clauseSamples = map[string]string{
	"private":      "private(p)",
	"firstprivate": "firstprivate(f)",
	"shared":       "shared(s)",
	"reduction":    "reduction(+:r)",
	"schedule":     "schedule(dynamic, 2)",
	"depend":       "depend(in: a[0])",
	"map":          "map(tofrom: a)",
	"device":       "device(1)",
	"priority":     "priority(2)",
	"name":         "name(t1)",
	"default":      "default(none)",
	"nowait":       "nowait",
}

// cellProgram places `#pragma omp <kind> <clause>` in a program where the
// directive is legal: the region directives at the top of main, every
// other one inside a parallel region. r is the reduction variable, of
// type rtype. It returns the program and the pragma's line.
func cellProgram(kind DirKind, clause, rtype string) (string, int) {
	const upd = "p = 1; r = r + i; a[1] = p + f + s;"
	var body string
	switch kind {
	case DirParallel:
		body = "{ " + upd + " }"
	case DirFor, DirParallelFor:
		body = "for (i = 0; i < 8; i++) { " + upd + " }"
	case DirCritical, DirSingle, DirMaster:
		body = "{ a[2] = 1.0; }"
	case DirAtomic:
		body = "x += 1.0;"
	case DirTask, DirTarget:
		body = "{ p = 1; a[3] = p + f; }"
	}
	head := "double a[8];\ndouble x;\nint main() {\n\tint i, p, f, s;\n\t" + rtype + " r;\n"
	lines := strings.Count(head, "\n")
	inner := "#pragma omp " + kind.String() + " " + clause + "\n" + body + "\n"
	if kind == DirParallel || kind == DirParallelFor {
		return head + inner + "}\n", lines + 1
	}
	return head + "#pragma omp parallel\n{\n" + inner + "}\n}\n", lines + 3
}

// TestDirectiveTableCells walks every (directive, clause) cell of the
// directive table. A valid cell translates to Go that type-checks, with
// each reduction operator over an int and a double variable; an invalid
// cell fails with a *ClauseError naming the clause at its line and column.
func TestDirectiveTableCells(t *testing.T) {
	var names []string
	for c := range clauses {
		names = append(names, c)
	}
	sort.Strings(names)
	for k := range directives {
		kind := DirKind(k)
		takes := strings.Fields(directives[k].clauses)
		valid := func(clause, rtype string) {
			src, _ := cellProgram(kind, clause, rtype)
			out, err := Translate(src, Options{})
			if err == nil {
				err = typeCheck(t, out)
			}
			if err != nil {
				t.Errorf("%v %s (%s r): %v\n%s", kind, clause, rtype, err, src)
			}
		}
		valid("", "double")
		for _, c := range names {
			switch {
			case c == "reduction" && contains(takes, c):
				for _, op := range clauses[c].words {
					valid("reduction("+op+":r)", "int")
					valid("reduction("+op+":r)", "double")
				}
			case contains(takes, c):
				valid(clauseSamples[c], "double")
			default:
				src, line := cellProgram(kind, clauseSamples[c], "double")
				_, err := Translate(src, Options{})
				var ce *ClauseError
				col := len("omp "+kind.String()+" ") + 1
				if !errors.As(err, &ce) || ce.Clause != c || ce.Line != line || ce.Col != col {
					t.Errorf("%v %s: err = %v, want a %s clause error at line %d, col %d", kind, c, err, c, line, col)
				}
			}
		}
	}
}

// Inputs the translator once accepted while dropping the clause, each
// now a *ClauseError at the offending clause.
func TestDirectiveGrammarErrors(t *testing.T) {
	cases := []struct {
		text, clause string
		col          int
	}{
		{"omp barrier this is not a clause (", "this", 13},
		{"omp atomic nowait", "nowait", 12},
		{"omp master private(x)", "private", 12},
		{"omp taskwait depend(in: x)", "depend", 14},
		{"omp single reduction(+:s) schedule(static)", "reduction", 12},
		{"omp critical nowait", "nowait", 14},
		{"omp critical (update) nowait", "nowait", 23},
		{"omp for private(i) shared(i)", "shared", 20},
		{"omp parallel private(i) shared(i)", "shared", 32},
		{"omp parallel for firstprivate(x) reduction(+:x)", "reduction", 46},
		{"omp parallel private(i, i)", "private", 25},
		{"omp for schedule(static, 4)", "schedule", 26},
		{"omp parallel for schedule(dynamic, 2, 3)", "schedule", 37},
		{"omp task schedule(dynamic)", "schedule", 10},
		{"omp for reduction(-:x)", "reduction", 19},
		{"omp parallel default(private)", "default", 22},
		{"omp for nowait (", "(", 16},
	}
	for _, tc := range cases {
		_, err := parseDirective(tc.text, 4)
		var ce *ClauseError
		if !errors.As(err, &ce) || ce.Line != 4 || ce.Clause != tc.clause || ce.Col != tc.col {
			t.Errorf("%q: err = %v, want a %s clause error at line 4, col %d", tc.text, err, tc.clause, tc.col)
		}
	}
}

// FuzzTranslate: Translate never panics, and its directive lowering
// never makes an accepted program ill-typed. The sequential C subset
// still has holes: % on a double, && assigned to an int and a non-void
// helper with no return all translate to Go that does not compile. So an
// output that fails to type-check is a fault here only when the same
// program with its pragma lines blanked type-checks. Seeds are the
// committed C sources and the corpus under testdata/fuzz/FuzzTranslate.
func FuzzTranslate(f *testing.F) {
	srcs, err := filepath.Glob("testdata/*.c")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		out, err := Translate(src, Options{})
		if err != nil {
			return
		}
		terr := typeCheck(t, out)
		if terr == nil {
			return
		}
		lines := strings.Split(src, "\n")
		for i, line := range lines {
			if l := strings.TrimSpace(line); strings.HasPrefix(l, "#") && strings.HasPrefix(strings.TrimSpace(l[1:]), "pragma") {
				lines[i] = ""
			}
		}
		serial, err := Translate(strings.Join(lines, "\n"), Options{})
		if err == nil && typeCheck(t, serial) == nil {
			t.Fatalf("directive lowering does not type-check: %v\n%s", terr, out)
		}
	})
}
