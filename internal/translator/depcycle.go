package translator

import (
	"fmt"
	"slices"
)

// Static rejection of circular depend(task:) sets. The runtime detects
// the same condition at spawn time (it panics with a *core.TaskCycleError,
// which ends the run as a *sim.PanicError); the translator catches the
// literal-name case before any code is generated, per function — the
// static approximation of the runtime's spawning context.

// DepCycleError is the typed error for a statically detectable cycle in
// the named-task dependence graph: a task whose depend(task:) references
// lead, transitively, back to itself.
type DepCycleError struct {
	Name string // a task name on the cycle
	Line int    // the source line of its directive
}

func (e *DepCycleError) Error() string {
	return fmt.Sprintf("line %d: task dependence cycle through %q", e.Line, e.Name)
}

// checkTaskCycles walks every function's named task/target directives
// and rejects circular depend(task:) reference sets. References to names
// no sibling registers are ignored — the runtime resolves those
// vacuously at the context's end.
func checkTaskCycles(prog *Program) error {
	for _, fn := range prog.Funcs {
		type node struct {
			line int
			out  []string
		}
		graph := map[string]*node{}
		walk(fn.Body, func(x any) bool {
			st, ok := x.(*OmpStmt)
			if !ok || st.Dir.Kind != DirTask && st.Dir.Kind != DirTarget || st.Dir.TaskName == "" {
				return true
			}
			var out []string
			for _, dep := range st.Dir.Depends {
				out = append(out, dep.Tasks...)
			}
			if n := graph[st.Dir.TaskName]; n != nil {
				// A reused name (e.g. a spawn in a loop): the edges of
				// every occurrence belong to one node.
				n.out = append(n.out, out...)
			} else {
				graph[st.Dir.TaskName] = &node{line: st.Line, out: out}
			}
			return true
		})

		// Unnamed tasks cannot be referenced, so only named nodes can sit
		// on a cycle; depth-first search with the usual three colors.
		const (
			white = iota
			grey
			black
		)
		color := map[string]int{}
		var visit func(name string) *DepCycleError
		visit = func(name string) *DepCycleError {
			n := graph[name]
			if n == nil {
				return nil // dangling reference: vacuous at runtime
			}
			switch color[name] {
			case grey:
				return &DepCycleError{Name: name, Line: n.line}
			case black:
				return nil
			}
			color[name] = grey
			for _, m := range n.out {
				if err := visit(m); err != nil {
					return err
				}
			}
			color[name] = black
			return nil
		}
		names := make([]string, 0, len(graph))
		for name := range graph {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			if err := visit(name); err != nil {
				return err
			}
		}
	}
	return nil
}
