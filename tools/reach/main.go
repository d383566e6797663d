// Reach is the reachability ledger: it says, for every function in the
// module's non-test internal/ files, whether a binary under cmd/ reaches
// it, only a program under examples/ does, or nothing does.
//
// Reachability is the linker's own: every program is built with
// inlining off (so an inlined helper does not read as unreached) and
// with -ldflags=-dumpdep, which prints one "from -> to" line for each
// symbol the linker keeps. The codec tables construct a prototype of
// every wire type they register, which keeps all of them alive, so one
// rule overrides the linker there: a type a registry builds counts as
// reached only when a reached function other than a registry builds one
// too. Its methods are otherwise reached from nothing.
//
// Test scaffolding that lives in non-test files is declared once, in
// scaffold below, and reported apart. Every other function reached from
// nothing must be named, with a reason, in keep.txt beside this file.
// Run from the module root:
//
//	go run ./tools/reach
//
// It prints the per-package ledger and exits 1 when a production
// function is reached from nothing and not kept, or a kept one is
// reached again.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// scaffold is the test scaffolding kept in non-test files under
// internal/: batteries, generators, fault injectors and probes that
// only tests drive. An entry ending in "*" matches by prefix, others
// exactly, against a file path relative to internal/ or a function's
// ledger name.
var scaffold = []string{
	"testkit/*",
	"expr/exprtest/*",
	"baseline/*",
	"table/gen.go",
	"ingest/crashfs.go",
	"ingest/memfs.go",
	"obs/promcheck.go",
	"cluster.FaultTransport.Dial",
	"cluster.AddrFaultTransport.Dial",
	"cluster.NewFaultConn",
	"cluster.(*faultConn).*",
	"cluster.(*Worker).SetConnWrapper",
	"cluster.(*Worker).Crash",
	"cluster.(*Worker).NumDatasets",
}

// Ledger columns: the reach levels, best first, then declared
// scaffolding.
const (
	fromBinary = iota
	fromExamples
	fromNothing
	scaffolding
	columns
)

// fn is one function declaration in a non-test internal/ file.
type fn struct {
	name   string // ledger name: package path under internal/, then the linker's form
	recv   string // receiver type key ("sketch.HistogramSketch"), "" for a function
	file   string // path relative to the module root
	line   int
	lines  int
	init   bool                // a package init function
	builds map[string]struct{} // type keys it constructs
}

// source is the parsed internal/ tree.
type source struct {
	funcs      []*fn
	registered map[string]struct{} // type keys a registry constructs
}

func main() {
	bad, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// run builds the ledger, prints it and returns the number of keep-list
// violations.
func run() (int, error) {
	mod, err := modulePath("go.mod")
	if err != nil {
		return 0, err
	}
	src, err := parseInternal(mod, "internal")
	if err != nil {
		return 0, err
	}
	keep, err := readKeep(filepath.Join("tools", "reach", "keep.txt"))
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	var reached [2]map[string]bool // linker reach from cmd/, and from cmd/ plus examples/
	for i, dir := range []string{"cmd", "examples"} {
		progs, err := mainDirs(dir)
		if err != nil {
			return 0, err
		}
		set := map[string]bool{}
		if i > 0 {
			for s := range reached[0] {
				set[s] = true
			}
		}
		for _, p := range progs {
			if err := dumpdep(tmp, p, mod, set); err != nil {
				return 0, err
			}
		}
		reached[i] = set
	}
	level, demoted := classify(src, reached)
	return report(os.Stdout, src, level, demoted, keep), nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// mainDirs lists the program directories directly under dir.
func mainDirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			out = append(out, "./"+filepath.ToSlash(filepath.Join(dir, e.Name())))
		}
	}
	return out, nil
}

// dumpdep builds one program with the linker's dependency dump and adds
// the internal/ symbols it keeps to set.
func dumpdep(tmp, pkg, mod string, set map[string]bool) error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(tmp, "prog"),
		"-gcflags=all=-l", "-ldflags=-dumpdep", pkg)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		tail := out.Bytes()
		if len(tail) > 4096 {
			tail = tail[len(tail)-4096:]
		}
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, tail)
	}
	parseDumpdep(&out, mod+"/internal/", set)
	return nil
}

// parseDumpdep reads "from -> to" lines and adds every symbol under
// prefix, in ledger form, to set. Both ends of an edge are kept
// symbols. The linker appends attribute flags ("<UsedInIface>"), which
// are dropped, and type arguments are erased, so every instance of a
// generic function counts for its declaration. Aux data symbols
// (".stkobj", ".arginfo1") name functions that may not be kept; they
// never equal a declaration's name, so they match nothing.
func parseDumpdep(r io.Reader, prefix string, set map[string]bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range [2]string{from, to} {
			if i := strings.LastIndex(s, " <"); i >= 0 && strings.HasSuffix(s, ">") {
				s = s[:i]
			}
			if rest, ok := strings.CutPrefix(s, prefix); ok {
				set[eraseTypeArgs(rest)] = true
			}
		}
	}
}

// eraseTypeArgs drops every bracketed type-argument list.
func eraseTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// parseInternal parses every non-test .go file under root (testdata
// excluded). mod is the module path.
func parseInternal(mod, root string) (*source, error) {
	src := &source{registered: map[string]struct{}{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		return src.addFile(fset, mod+"/"+filepath.ToSlash(root)+"/", filepath.ToSlash(rel), filepath.ToSlash(path), b)
	})
	return src, err
}

// addFile adds one file's functions and registrations. prefix is the
// import path of the internal/ root, pkg the file's package path under
// it.
func (src *source) addFile(fset *token.FileSet, prefix, pkg, path string, b []byte) error {
	f, err := parser.ParseFile(fset, path, b, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	imports := map[string]string{} // local name -> package path under prefix
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		rest, ok := strings.CutPrefix(p, prefix)
		if !ok {
			continue
		}
		name := rest[strings.LastIndex(rest, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = rest
	}
	builds := func(n ast.Node) map[string]struct{} {
		out := map[string]struct{}{}
		ast.Inspect(n, func(n ast.Node) bool {
			var t ast.Expr
			switch n := n.(type) {
			case *ast.CompositeLit:
				t = n.Type
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					t = n.Args[0]
				}
			}
			if k := typeKey(t, pkg, imports); k != "" {
				out[k] = struct{}{}
			}
			return true
		})
		return out
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			x := &fn{
				file:   path,
				line:   fset.Position(d.Pos()).Line,
				lines:  fset.Position(d.End()).Line - fset.Position(d.Pos()).Line + 1,
				init:   d.Recv == nil && d.Name.Name == "init",
				builds: builds(d.Body),
			}
			x.name = pkg + "." + d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				t := d.Recv.List[0].Type
				star := ""
				if s, ok := t.(*ast.StarExpr); ok {
					star, t = "*", s.X
				}
				t = stripIndex(t)
				if id, ok := t.(*ast.Ident); ok {
					x.recv = pkg + "." + id.Name
					if star != "" {
						x.name = pkg + ".(*" + id.Name + ")." + d.Name.Name
					} else {
						x.name = pkg + "." + id.Name + "." + d.Name.Name
					}
				}
			}
			if x.init {
				for k := range x.builds {
					src.registered[k] = struct{}{}
				}
			}
			src.funcs = append(src.funcs, x)
		case *ast.GenDecl:
			// A package-level table (a slice, array or map literal)
			// is a registry too.
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					cl, ok := v.(*ast.CompositeLit)
					if !ok {
						continue
					}
					switch cl.Type.(type) {
					case *ast.ArrayType, *ast.MapType:
						for k := range builds(cl) {
							src.registered[k] = struct{}{}
						}
					}
				}
			}
		}
	}
	return nil
}

func stripIndex(t ast.Expr) ast.Expr {
	switch x := t.(type) {
	case *ast.IndexExpr:
		return x.X
	case *ast.IndexListExpr:
		return x.X
	}
	return t
}

// typeKey names a constructed type by package path under internal/ and
// type name ("sketch.HistogramSketch"); "" for a type imported from
// outside internal/.
func typeKey(t ast.Expr, pkg string, imports map[string]string) string {
	switch x := stripIndex(t).(type) {
	case *ast.Ident:
		return pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if p, ok := imports[id.Name]; ok {
				return p + "." + x.Sel.Name
			}
		}
	}
	return ""
}

// linkerNames are the symbols the linker may keep a declaration under:
// its own, and for a value-receiver method also its pointer wrapper.
func (f *fn) linkerNames() []string {
	names := []string{f.name}
	if f.recv != "" && !strings.Contains(f.name, "(*") {
		dot := strings.LastIndex(f.recv, ".")
		method := f.name[len(f.recv)+1:]
		names = append(names, f.recv[:dot]+".(*"+f.recv[dot+1:]+")."+method)
	}
	return names
}

// classify gives every function its reach level. reached[0] is the
// linker's set from cmd/ (fromBinary), reached[1] from cmd/ and
// examples/ (fromExamples). It also returns, per set, the registered
// types the registry rule demoted.
func classify(src *source, reached [2]map[string]bool) (map[*fn]int, [2][]string) {
	level := map[*fn]int{}
	for _, f := range src.funcs {
		level[f] = fromNothing
	}
	var demoted [2][]string
	for i := 1; i >= 0; i-- {
		live, dem := applyRegistryRule(src, reached[i])
		for _, f := range src.funcs {
			if live[f] {
				level[f] = i
			}
		}
		demoted[i] = dem
	}
	return level, demoted
}

// applyRegistryRule returns the functions reached under set once every
// registered type that no reached non-init function builds has lost
// its methods, and those types. Demoting a type can leave another
// built only by its methods, so it repeats to a fixed point.
func applyRegistryRule(src *source, set map[string]bool) (map[*fn]bool, []string) {
	linked := map[*fn]bool{}
	for _, f := range src.funcs {
		for _, n := range f.linkerNames() {
			if set[n] {
				linked[f] = true
			}
		}
	}
	demoted := map[string]bool{}
	for {
		built := map[string]bool{}
		for f := range linked {
			if f.init || demoted[f.recv] {
				continue
			}
			for k := range f.builds {
				built[k] = true
			}
		}
		grew := false
		for k := range src.registered {
			if !built[k] && !demoted[k] {
				demoted[k], grew = true, true
			}
		}
		if !grew {
			break
		}
	}
	live := map[*fn]bool{}
	var types []string
	for f := range linked {
		if !demoted[f.recv] {
			live[f] = true
		}
	}
	for k := range demoted {
		types = append(types, k)
	}
	sort.Strings(types)
	return live, types
}

// isScaffold reports whether f is declared test scaffolding.
func isScaffold(f *fn) bool {
	rel := strings.TrimPrefix(f.file, "internal/")
	for _, p := range scaffold {
		if pre, ok := strings.CutSuffix(p, "*"); ok {
			if strings.HasPrefix(rel, pre) || strings.HasPrefix(f.name, pre) {
				return true
			}
		} else if rel == p || f.name == p {
			return true
		}
	}
	return false
}

// readKeep reads the keep list: one ledger name and its reason a line;
// "#" starts a comment line.
func readKeep(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	keep := map[string]string{}
	for i, l := range strings.Split(string(b), "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		name, reason, _ := strings.Cut(l, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		keep[name] = strings.TrimSpace(reason)
	}
	return keep, nil
}

// report prints the ledger and returns the number of keep-list
// violations.
func report(w io.Writer, src *source, level map[*fn]int, demoted [2][]string, keep map[string]string) int {
	type row struct{ funcs, lines [columns]int }
	rows := map[string]*row{}
	var total row
	var nothing []*fn
	for _, f := range src.funcs {
		if f.init {
			continue
		}
		pkg := f.name[:strings.Index(f.name, ".")]
		r := rows[pkg]
		if r == nil {
			r = &row{}
			rows[pkg] = r
		}
		col := level[f]
		if isScaffold(f) {
			col = scaffolding
		} else if col == fromNothing {
			nothing = append(nothing, f)
		}
		r.funcs[col]++
		r.lines[col] += f.lines
		total.funcs[col]++
		total.lines[col] += f.lines
	}
	pkgs := make([]string, 0, len(rows))
	for p := range rows {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	fmt.Fprintf(w, "function lines (functions) in internal/, by what reaches them\n")
	fmt.Fprintf(w, "%-20s %14s %14s %14s %14s\n", "package", "binary", "examples only", "nothing", "scaffold")
	line := func(name string, r *row) {
		fmt.Fprintf(w, "%-20s", name)
		for c := 0; c < columns; c++ {
			fmt.Fprintf(w, " %14s", fmt.Sprintf("%d (%d)", r.lines[c], r.funcs[c]))
		}
		fmt.Fprintln(w)
	}
	for _, p := range pkgs {
		line(p, rows[p])
	}
	line("total", &total)

	fmt.Fprintf(w, "\nregistered types no reached function builds: %s (from binaries), %s (with examples)\n",
		listOrNone(demoted[0]), listOrNone(demoted[1]))

	sort.Slice(nothing, func(i, j int) bool { return nothing[i].name < nothing[j].name })
	bad := 0
	fmt.Fprintf(w, "\nproduction functions reached from nothing:\n")
	seen := map[string]bool{}
	for _, f := range nothing {
		seen[f.name] = true
		why, ok := keep[f.name]
		if !ok {
			why = "NOT ON THE KEEP LIST"
			bad++
		}
		fmt.Fprintf(w, "  %-48s %s:%d (%d lines)  %s\n", f.name, f.file, f.line, f.lines, why)
	}
	var stale []string
	for k := range keep {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		fmt.Fprintf(w, "keep list names %s, which is not a production function reached from nothing\n", k)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d violation(s): delete the function, reach it, or keep it in tools/reach/keep.txt with a reason\n", bad)
	}
	return bad
}

func listOrNone(s []string) string {
	if len(s) == 0 {
		return "none"
	}
	return strings.Join(s, ", ")
}
