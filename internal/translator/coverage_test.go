package translator

import (
	"strings"
	"testing"
)

// A kitchen-sink program exercising the breadth of the accepted subset:
// helpers, casts, ternaries, comparisons as values, while/if/else,
// break/continue, inc/dec on scalars and array elements, compound
// assignment, multi-declarator lists, and printf format fixing.
func TestTranslateKitchenSink(t *testing.T) {
	out := translate(t, `
#include <stdio.h>
#include <math.h>
#define N 32

double grid[N][N];
double total;

double weight(double x, int k) {
	double w;
	w = x;
	while (k > 0) {
		w = w * 0.5;
		k--;
		if (w < 0.001) {
			break;
		}
	}
	return w;
}

int clampi(int v, int hi) {
	return v > hi ? hi : v;
}

int main() {
	int i, j, flips;
	double scale, best;

	scale = 1.5;
	flips = 0;
	best = -1.0;

	for (i = 0; i < N; i++) {
		for (j = 0; j < N; j++) {
			grid[i][j] = weight(scale, clampi(i + j, 8)) * (i % 2 == 0 ? 1.0 : -1.0);
		}
	}

#pragma omp parallel private(j) reduction(max:best)
	{
#pragma omp for
		for (i = 1; i < N - 1; i++) {
			for (j = 1; j < N - 1; j++) {
				double v;
				v = fabs(grid[i][j]);
				if (v > best) {
					best = v;
				} else {
					continue;
				}
				grid[i][j] /= 2.0;
				grid[i][j]++;
			}
		}
#pragma omp critical (tally)
		{
			total += best;
		}
	}

	flips += (int) best;
	flips += (flips == 0);
	flips--;
	printf("best=%lf flips=%ld total=%le\n", best, flips, total);
	return 0;
}`)
	for _, want := range []string{
		"func weight(x float64, k int) float64",
		"func clampi(v int, hi int) int",
		"ternary(",
		"b2i(",
		"math.Abs(",
		`tc.Critical("tally", []*parade.Scalar{s_total}`,
		"math.Max(", // max reduction combine
		`fmt.Printf("best=%f flips=%d total=%e\n"`,
		"int(", // the cast
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// Every rejection path reports a useful error.
func TestTranslateErrorTable(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no main", `int helper() { return 1; }`, "no main"},
		{"function-like macro", "#define SQ(x) ((x)*(x))\nint main() {}", "function-like"},
		{"preprocessor conditional", "#ifdef X\n#endif\nint main() {}", "conditionals"},
		{"file-scope pragma", "#pragma omp parallel\nint main() {}", "file scope"},
		{"non-canonical omp for init", `int main() { int i;
#pragma omp for
for (i = 10; i > 0; i++) { } }`, "for-condition"},
		{"decrement omp for", `int main() { int i;
#pragma omp for
for (i = 0; i < 9; i--) { } }`, "for-increment"},
		{"omp for outside region", `int main() { int i;
#pragma omp for
for (i = 0; i < 9; i++) { } }`, "outside a parallel region"},
		{"atomic on array", `double a[4];
int main() {
#pragma omp parallel
	{
#pragma omp atomic
		a[0] += 1.0;
	}
}`, "atomic"},
		{"bad clause", `int main() {
#pragma omp parallel copyin(x)
	{ }
}`, "unsupported clause"},
		{"unterminated block", `int main() { {`, "end of file"},
		{"arrays in helper scope", `double f() { double local[4]; return local[0]; }
int main() {}`, "file scope or in main"},
		{"unterminated char literal at end of file", "'000", "unterminated char literal"},
		{"unterminated char literal in a statement", "int main() { x = 'a", "unterminated char literal"},
		{"subscript count below rank", `double a[4][4];
int main() {
	a[1] = 2.0;
}`, "line 3: array a has rank 2 but is indexed with 1 subscript(s)"},
		{"subscript count above rank in a read", `double a[4];
double s;
int main() {
	s = a[1][2];
}`, "line 4: array a has rank 1 but is indexed with 2 subscript(s)"},
		{"for-increment steps another variable", `int main() { int i; int j;
for (i = 0; i < 4; j++) { } }`, "line 2: for-increment must step the loop variable"},
		{"undeclared name in a statement", `int main(){A;}`, "undeclared name A in main"},
		{"undeclared name in an expression", `double x;
int main() {
	x = y + 1;
}`, "undeclared name y in main"},
		{"call of an undeclared function", `int main() {
	foo(1);
}`, "call of undeclared function foo in main"},
		{"name declared only in a helper", `double h(double v) { double t; t = v; return t; }
int main() {
	printf("%f\n", h(t));
}`, "undeclared name t in main"},
		{"helper reads a file-scope scalar", `int n = 4;
int helper(int k) { return k + n; }
int main() {
	printf("%d\n", helper(1));
}`, "helper helper references file-scope variable n"},
	}
	for _, c := range cases {
		_, err := Translate(c.src, Options{})
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// Comments, string escapes, and char literals survive lexing.
func TestLexerLiterals(t *testing.T) {
	toks, err := NewLexer(`int main() { printf("a \"quoted\" %d\n", 'x'); }`).Lex()
	if err != nil {
		t.Fatal(err)
	}
	var haveStr, haveChar bool
	for _, tok := range toks {
		if tok.Kind == TokString && strings.Contains(tok.Text, `\"quoted\"`) {
			haveStr = true
		}
		if tok.Kind == TokChar {
			haveChar = true
		}
	}
	if !haveStr || !haveChar {
		t.Fatalf("literals lost: str=%v char=%v", haveStr, haveChar)
	}
}

// Multi-declarator lists and initializers at file scope.
func TestTranslateMultiDeclarators(t *testing.T) {
	out := translate(t, `
int main() {
	double x = 0.5, y, z = 2.0;
	y = x + z;
	printf("%f\n", y);
}`)
	for _, want := range []string{"var x float64 = 0.5", "var y float64", "var z float64 = 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// The master directive and explicit barrier lower directly.
func TestTranslateMasterAndBarrier(t *testing.T) {
	out := translate(t, `
int main() {
#pragma omp parallel
	{
#pragma omp master
		{ printf("hi\n"); }
#pragma omp barrier
	}
}`)
	if !strings.Contains(out, "tc.Master(func() {") || !strings.Contains(out, "tc.Barrier()") {
		t.Fatalf("master/barrier not lowered:\n%s", out)
	}
}

// Atomic increments and decrements.
func TestTranslateAtomicIncDec(t *testing.T) {
	out := translate(t, `
double n;
int main() {
#pragma omp parallel
	{
#pragma omp atomic
		n++;
#pragma omp atomic
		n -= 2.0;
	}
}`)
	if !strings.Contains(out, "tc.Atomic(s_n, 1)") || !strings.Contains(out, "tc.Atomic(s_n, -(2.0))") {
		t.Fatalf("atomic inc/dec not lowered:\n%s", out)
	}
}

// firstprivate shadows are emitted for referenced outer scalars.
func TestTranslateFirstprivateShadowing(t *testing.T) {
	out := translate(t, `
int main() {
	double alpha;
	alpha = 2.0;
#pragma omp parallel
	{
		double y;
		y = alpha * 2.0;
	}
}`)
	if !strings.Contains(out, "alpha := alpha // firstprivate copy") {
		t.Fatalf("no shadow for alpha:\n%s", out)
	}
}

// nowait on an omp for elides the barrier.
func TestTranslateNowait(t *testing.T) {
	out := translate(t, `
double a[64];
int main() {
	int i;
#pragma omp parallel
	{
#pragma omp for nowait
		for (i = 0; i < 64; i++) {
			a[i] = i;
		}
	}
}`)
	if !strings.Contains(out, "parade.Nowait()") {
		t.Fatalf("nowait ignored:\n%s", out)
	}
}
