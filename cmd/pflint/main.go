// Command pflint is the repository's lock-discipline linter for the
// mediation hot path. The engine's Filter path is designed to be lock-free:
// rulesets, compiled indexes, MAC caches, and hook tables are all published
// through atomic pointers (RCU/copy-on-write), and per-request counters are
// sharded. A mutex acquired anywhere Filter can reach reintroduces the
// cross-core serialization the design removed — and has done so before,
// invisibly to the unit tests, because correctness is unaffected.
//
// Suppressions come in two granularities: "//pflint:allow" on (or above) a
// line audits that single site, and "//pflint:allow-fn" in a function's doc
// comment audits the whole function as cold-path for the allocation lint —
// the right shape for renderers and miss-path builders whose every line
// allocates by design.
//
// pflint parses the hot-path packages with the standard library's go/ast
// (no type checking, no external dependencies) and builds a name-based call
// graph rooted at (*Engine).Filter. Within every function reachable from
// that root it flags:
//
//   - sync mutex acquisitions: any .Lock() / .RLock() call;
//   - post-publish snapshot mutation: an assignment through a variable
//     bound from a .Load() call — mutating a published snapshot instead of
//     copy-on-write racing every concurrent reader.
//
// With -alloc, pflint instead guards the zero-allocation invariant: it runs
// the compiler's escape analysis (go build -gcflags=<pkg>=-m — diagnostics
// are replayed from the build cache, so warm runs are cheap) and flags every
// "escapes to heap" / "moved to heap" site inside a function reachable from
// the Filter roots. The pooled request/scratch design makes the steady-state
// mediation path allocation-free; an escape that creeps into its closure is
// a per-syscall heap allocation waiting to happen. The same "//pflint:allow"
// comment suppresses a site after it has been audited as cold-path (slow
// paths that only run on rule updates, cache misses, or log emission).
//
// Name-based reachability is deliberately an over-approximation (interface
// method calls fan out to every method of that name), which is the sound
// direction for a linter guarding an invariant. A finding that is a
// verified false positive — the lock provably sits on a cold path — is
// suppressed by a "//pflint:allow" comment on or directly above the line,
// which doubles as in-source documentation that the lock was audited.
//
// Usage: pflint [-v] [-alloc] [dir ...]  (default: the hot-path package closure)
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// defaultDirs is the transitive package closure of the mediation hot path:
// everything (*Engine).Filter can execute, plus the control-plane and
// provenance packages (policyd, trace) whose callbacks the engine invokes
// from inside mediation (gate closures, span collection, denial logging).
var defaultDirs = []string{
	"internal/pf", "internal/mac", "internal/ustack", "internal/obs",
	"internal/trace", "internal/policyd",
}

func main() {
	verbose := flag.Bool("v", false, "list the functions found reachable from Engine.Filter")
	alloc := flag.Bool("alloc", false, "run the allocation lint (escape analysis on the Filter closure) instead of the lock lint")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	run := runLint
	if *alloc {
		run = runAllocLint
	}
	n, err := run(dirs, *verbose, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pflint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// site is one flagged source location.
type site struct {
	pos token.Position
	msg string
}

// fn is one analyzed function declaration.
type fn struct {
	key     string // pkg.recv.name, for diagnostics
	name    string // bare name, the call-graph vertex label
	pos     token.Position
	endLine int  // last source line of the body, for escape-site attribution
	allowFn bool // doc comment carries pflint:allow-fn: audited cold path
	calls   map[string]bool
	locks   []site
	muts    []site
}

// scan parses every non-test .go file under dirs, returning the analyzed
// functions and the per-file set of lines carrying a pflint:allow comment.
func scan(fset *token.FileSet, dirs []string) ([]*fn, map[string]map[int]bool, error) {
	var fns []*fn
	allows := make(map[string]map[int]bool)
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			fileFns, allowed := analyzeFile(fset, file)
			fns = append(fns, fileFns...)
			allows[canonFile(path)] = allowed
		}
	}
	return fns, allows, nil
}

// reachable BFS-walks the name-based call graph from every Filter root
// ((*Engine).Filter and (*Batch).Filter declarations) and returns the
// reached set plus the predecessor map for diagnostics.
func reachable(fns []*fn, dirs []string) (map[*fn]bool, map[*fn]*fn, error) {
	byName := make(map[string][]*fn)
	for _, f := range fns {
		byName[f.name] = append(byName[f.name], f)
	}
	reach := make(map[*fn]bool)
	var queue []*fn
	for _, f := range fns {
		if f.key == "pf.Engine.Filter" || f.key == "pf.Batch.Filter" {
			reach[f] = true
			queue = append(queue, f)
		}
	}
	if len(queue) == 0 {
		return nil, nil, fmt.Errorf("no Filter root found in %v", dirs)
	}
	via := make(map[*fn]*fn)
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for name := range f.calls {
			for _, callee := range byName[name] {
				if !reach[callee] {
					reach[callee] = true
					via[callee] = f
					queue = append(queue, callee)
				}
			}
		}
	}
	return reach, via, nil
}

// runLint scans dirs (non-test .go files), builds the call graph, and
// writes one line per finding. It returns the number of findings.
func runLint(dirs []string, verbose bool, out io.Writer) (int, error) {
	fset := token.NewFileSet()
	fns, _, err := scan(fset, dirs)
	if err != nil {
		return 0, err
	}
	reach, via, err := reachable(fns, dirs)
	if err != nil {
		return 0, err
	}

	var findings []site
	reached := make([]string, 0, len(reach))
	for f := range reach {
		reached = append(reached, f.key)
		for _, s := range append(f.locks, f.muts...) {
			findings = append(findings, site{pos: s.pos, msg: fmt.Sprintf("%s (in %s, reachable from Engine.Filter via %s)", s.msg, f.key, chain(via, f))})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, s := range findings {
		fmt.Fprintf(out, "%s:%d: [pflint] %s\n", s.pos.Filename, s.pos.Line, s.msg)
	}
	if verbose {
		sort.Strings(reached)
		fmt.Fprintf(out, "pflint: %d functions reachable from Engine.Filter:\n", len(reached))
		for _, k := range reached {
			fmt.Fprintf(out, "  %s\n", k)
		}
	}
	if len(findings) == 0 {
		fmt.Fprintf(out, "pflint: ok (%d functions scanned, %d reachable from Engine.Filter)\n", len(fns), len(reach))
	}
	return len(findings), nil
}

// pkgPath maps a scan directory to its import path, tolerating dirs given
// relative to a subdirectory (as the tests do with "../../internal/pf").
func pkgPath(dir string) string {
	slash := filepath.ToSlash(filepath.Clean(dir))
	if i := strings.Index(slash, "internal/"); i >= 0 {
		return "pfirewall/" + slash[i:]
	}
	return "pfirewall/" + slash
}

// canonFile normalizes a source path for matching compiler diagnostics
// (module-root relative) against parsed file names (scan-dir relative).
func canonFile(path string) string {
	slash := filepath.ToSlash(filepath.Clean(path))
	if i := strings.Index(slash, "internal/"); i >= 0 {
		return slash[i:]
	}
	return slash
}

// escapeLine matches one compiler escape diagnostic worth flagging. The
// "leaking param" and "does not escape" lines are deliberately excluded:
// only sites where something actually lands on the heap can allocate.
var escapeLine = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*(?:escapes to heap|moved to heap).*)$`)

// runAllocLint builds the scanned packages with escape analysis enabled and
// flags heap-escape sites inside the Filter closure.
func runAllocLint(dirs []string, verbose bool, out io.Writer) (int, error) {
	fset := token.NewFileSet()
	fns, allows, err := scan(fset, dirs)
	if err != nil {
		return 0, err
	}
	reach, via, err := reachable(fns, dirs)
	if err != nil {
		return 0, err
	}

	// fnAt resolves an escape site to the innermost reachable function
	// whose body spans the line (function literals report their enclosing
	// declaration, which is the granularity the call graph works at).
	byFile := make(map[string][]*fn)
	for f := range reach {
		byFile[canonFile(f.pos.Filename)] = append(byFile[canonFile(f.pos.Filename)], f)
	}
	fnAt := func(file string, line int) *fn {
		var best *fn
		for _, f := range byFile[file] {
			if f.pos.Line <= line && line <= f.endLine {
				if best == nil || f.pos.Line > best.pos.Line {
					best = f
				}
			}
		}
		return best
	}

	// One build invocation covers every scanned package; the compiler
	// replays -m diagnostics from the build cache, so warm runs cost only
	// the cache lookup.
	args := []string{"build"}
	pkgs := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		args = append(args, "-gcflags", pkgPath(dir)+"=-m")
		pkgs = append(pkgs, pkgPath(dir))
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, raw)
	}
	if !strings.Contains(string(raw), ":") {
		return 0, fmt.Errorf("escape analysis produced no diagnostics — build cache anomaly? re-run with a clean cache")
	}

	var findings []site
	for _, line := range strings.Split(string(raw), "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file, msg := canonFile(m[1]), m[3]
		ln := 0
		fmt.Sscanf(m[2], "%d", &ln)
		f := fnAt(file, ln)
		if f == nil {
			continue // not inside the Filter closure
		}
		if f.allowFn || allows[file][ln] {
			continue // audited cold-path escape
		}
		findings = append(findings, site{
			pos: token.Position{Filename: file, Line: ln},
			msg: fmt.Sprintf("%s (in %s, reachable from Filter via %s)", msg, f.key, chain(via, f)),
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, s := range findings {
		fmt.Fprintf(out, "%s:%d: [pflint-alloc] %s\n", s.pos.Filename, s.pos.Line, s.msg)
	}
	if verbose {
		reached := make([]string, 0, len(reach))
		for f := range reach {
			reached = append(reached, f.key)
		}
		sort.Strings(reached)
		fmt.Fprintf(out, "pflint -alloc: %d functions in the Filter closure:\n", len(reached))
		for _, k := range reached {
			fmt.Fprintf(out, "  %s\n", k)
		}
	}
	if len(findings) == 0 {
		fmt.Fprintf(out, "pflint -alloc: ok (no unaudited heap escapes in the Filter closure)\n")
	}
	return len(findings), nil
}

// chain renders the BFS path from Filter down to f, e.g.
// "Filter -> run -> evalRule".
func chain(via map[*fn]*fn, f *fn) string {
	var names []string
	for cur := f; cur != nil; cur = via[cur] {
		names = append(names, cur.name)
		if len(names) > 8 {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// analyzeFile extracts every function declaration with its outgoing calls,
// lock sites, and snapshot-mutation sites, plus the file's pflint:allow
// line set (shared by both lint modes).
func analyzeFile(fset *token.FileSet, file *ast.File) ([]*fn, map[int]bool) {
	// Lines carrying a pflint:allow suppression (the line itself or the
	// line below a standalone comment).
	allowed := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "pflint:allow") {
				line := fset.Position(c.Pos()).Line
				allowed[line] = true
				allowed[line+1] = true
			}
		}
	}

	var fns []*fn
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		f := &fn{
			name:    fd.Name.Name,
			key:     funcKey(file.Name.Name, fd),
			pos:     fset.Position(fd.Pos()),
			endLine: fset.Position(fd.End()).Line,
			calls:   make(map[string]bool),
		}
		// Doc.Text() strips directive-style comments, so scan the raw list.
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if strings.Contains(c.Text, "pflint:allow-fn") {
					f.allowFn = true
				}
			}
		}
		snapVars := make(map[string]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				switch fun := x.Fun.(type) {
				case *ast.Ident:
					f.calls[fun.Name] = true
				case *ast.SelectorExpr:
					f.calls[fun.Sel.Name] = true
					if fun.Sel.Name == "Lock" || fun.Sel.Name == "RLock" {
						pos := fset.Position(x.Pos())
						if !allowed[pos.Line] {
							f.locks = append(f.locks, site{pos: pos, msg: fmt.Sprintf("mutex %s() on the mediation hot path", fun.Sel.Name)})
						}
					}
				}
			case *ast.AssignStmt:
				// x := <expr>.Load() binds a published snapshot.
				if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
					for i, rhs := range x.Rhs {
						if isLoadCall(rhs) {
							if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
								snapVars[id.Name] = true
							}
						}
					}
				}
				// Any assignment through a snapshot variable mutates the
				// published object every concurrent reader sees.
				for _, lhs := range x.Lhs {
					if root, deref := rootIdent(lhs); deref && root != nil && snapVars[root.Name] {
						pos := fset.Position(lhs.Pos())
						if !allowed[pos.Line] {
							f.muts = append(f.muts, site{pos: pos, msg: fmt.Sprintf("mutation through %q, a snapshot obtained from .Load() — copy-on-write it instead", root.Name)})
						}
					}
				}
			case *ast.IncDecStmt:
				if root, deref := rootIdent(x.X); deref && root != nil && snapVars[root.Name] {
					pos := fset.Position(x.Pos())
					if !allowed[pos.Line] {
						f.muts = append(f.muts, site{pos: pos, msg: fmt.Sprintf("mutation through %q, a snapshot obtained from .Load() — copy-on-write it instead", root.Name)})
					}
				}
			}
			return true
		})
		fns = append(fns, f)
	}
	return fns, allowed
}

// isLoadCall reports whether e is a call whose selector is named Load
// (atomic.Pointer/Value and the obs snapshot accessors all use the name).
func isLoadCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Load"
}

// rootIdent unwraps selector/index/star expressions down to the base
// identifier. deref reports whether any wrapping existed — a plain
// reassignment of the variable itself is not a mutation of the snapshot.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	deref := false
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e, deref = x.X, true
		case *ast.IndexExpr:
			e, deref = x.X, true
		case *ast.StarExpr:
			e, deref = x.X, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x, deref
		default:
			return nil, deref
		}
	}
}

// funcKey renders pkg.Recv.Name for diagnostics and root matching.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			recv = id.Name + "."
		}
	}
	return pkg + "." + recv + fd.Name.Name
}
