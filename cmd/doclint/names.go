package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// decls is what a doc may name: every package of the repository's
// modules with its top-level declarations (under its package name and
// its directory name), every member name (field, method, interface
// method) and every name bound inside a function (receiver, parameter,
// local), plus the names of the packages they import.
type decls struct {
	pkgs     map[string]map[string]bool // package or directory name → top-level names
	members  map[string]bool            // top-level names, fields and methods
	locals   map[string]bool            // receivers, parameters and locals
	imported map[string]bool            // last element of every import path
}

// loadDecls parses every Go file under root, tests included, and the
// modules nested in it (testdata and hidden directories are skipped).
func loadDecls(root string) (*decls, error) {
	d := &decls{pkgs: map[string]map[string]bool{}, members: map[string]bool{},
		locals: map[string]bool{}, imported: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		switch {
		case e.IsDir():
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
		case strings.HasSuffix(name, ".go"):
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			d.addFile(f, filepath.Base(filepath.Dir(path)))
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				d.imported[p[strings.LastIndex(p, "/")+1:]] = true
			}
		}
		return nil
	})
	return d, err
}

// addFile records the declarations of one parsed file of directory dir.
func (d *decls) addFile(f *ast.File, dir string) {
	var tops []map[string]bool
	for _, key := range []string{f.Name.Name, dir} {
		if d.pkgs[key] == nil {
			d.pkgs[key] = map[string]bool{}
		}
		tops = append(tops, d.pkgs[key])
	}
	declare := func(name string) {
		for _, top := range tops {
			top[name] = true
		}
		d.members[name] = true
	}
	for _, decl := range f.Decls {
		switch x := decl.(type) {
		case *ast.FuncDecl:
			declare(x.Name.Name)
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare(n.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.StructType:
			addFields(x.Fields, d.members)
		case *ast.InterfaceType:
			addFields(x.Methods, d.members)
		case *ast.FuncType:
			addFields(x.Params, d.locals)
			addFields(x.Results, d.locals)
		case *ast.FuncDecl:
			addFields(x.Recv, d.locals)
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, e := range x.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						d.locals[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok {
					d.locals[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				d.locals[id.Name] = true
			}
		}
		return true
	})
}

// addFields records the names of a field list into set.
func addFields(fl *ast.FieldList, set map[string]bool) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, n := range f.Names {
			set[n.Name] = true
		}
	}
}

var (
	// codeSpan is an inline code span of one line.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// diagramName is a parenthesized name in a diagram (a fenced block
	// without a language), which the diagrams use as a code span.
	diagramName = regexp.MustCompile(`\(([A-Za-z_][A-Za-z0-9_.]*)\)`)
	// groups are the call, index and literal suffixes a name may carry
	// in prose: `Knowledge.Profiles()`, `st.nodes[i]`.
	groups = regexp.MustCompile(`\([^()]*\)|\[[^\[\]]*\]|\{[^{}]*\}`)
	// nameRef is a Go name, dotted or not, optionally qualified by a
	// package as pkg:Name (how the docs cite a test of another package).
	nameRef = regexp.MustCompile(`^(?:([a-z][a-z0-9]*):)?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)$`)
	// fileExt is the extension of a file name such as `BENCH_results.json`.
	fileExt = regexp.MustCompile(`\.(go|md|json|txt|sh|golden|svg|csv|mod|yaml|yml|db|out|prof)$`)
	// jsonKey is a snake_case key of a telemetry report, which makes a
	// dotted span such as `events[kind="rebalance"].per_node` a path into
	// the report.
	jsonKey = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)+$`)
	// roadmapItem is a citation of a ROADMAP item by number, which goes
	// stale when the ROADMAP renumbers its items; a doc names the work
	// in words instead. It may wrap across lines.
	roadmapItem = regexp.MustCompile(`ROADMAP(?:'s)?\s+items?\s+[0-9]+`)
)

// lintDoc checks the markdown file at path, printing to w.
func lintDoc(d *decls, path string, w io.Writer) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return d.checkDoc(path, f, w)
}

// checkDoc reports, as path:line: `token`, every code span of a
// markdown document that names no declaration and, as path:line:
// citation, every ROADMAP item cited by number, and returns their
// number. The code spans are the backticked ones outside fenced blocks
// and the parenthesized names inside diagrams. A span is checked when
// it is one dotted or mixed-case name; out of scope are all-lowercase
// and all-uppercase single words, spans that are not one name (metric
// names with labels, flags, commands), file names, names qualified by
// a standard-library package, report paths with a snake_case key, and
// the floating-point values NaN and Inf.
func (d *decls) checkDoc(path string, r io.Reader, w io.Writer) (int, error) {
	var bad int
	var doc strings.Builder
	fenced, diagram := false, false
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		doc.WriteString(text + "\n")
		if fence, ok := strings.CutPrefix(strings.TrimSpace(text), "```"); ok {
			fenced, diagram = !fenced, !fenced && fence == ""
			continue
		}
		re := codeSpan
		if fenced {
			if !diagram {
				continue
			}
			re = diagramName
		}
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if !d.resolves(m[1]) {
				fmt.Fprintf(w, "%s:%d: `%s`\n", path, line, m[1])
				bad++
			}
		}
	}
	text := doc.String()
	for _, m := range roadmapItem.FindAllStringIndex(text, -1) {
		cite := strings.Join(strings.Fields(text[m[0]:m[1]]), " ")
		fmt.Fprintf(w, "%s:%d: %s (name the work in words)\n", path, 1+strings.Count(text[:m[0]], "\n"), cite)
		bad++
	}
	return bad, sc.Err()
}

// resolves reports whether a code span names a declaration, or is out
// of the check's scope.
func (d *decls) resolves(span string) bool {
	s := span
	for {
		t := groups.ReplaceAllString(s, "")
		if t == s {
			break
		}
		s = t
	}
	m := nameRef.FindStringSubmatch(s)
	if m == nil || fileExt.MatchString(s) || s == "NaN" || s == "Inf" {
		return true
	}
	pkg, parts := m[1], strings.Split(m[2], ".")
	if pkg == "" && len(parts) == 1 && !mixedCase(parts[0]) {
		return true
	}
	if pkg != "" {
		top, ok := d.pkgs[pkg]
		return ok && top[parts[0]] && d.allMembers(parts[1:])
	}
	if len(parts) > 1 {
		if top, ok := d.pkgs[parts[0]]; ok {
			return top[parts[1]] && d.allMembers(parts[2:])
		}
		// Not a package of the repository (checked above), so an
		// imported one is the standard library's.
		if d.imported[parts[0]] || slices.ContainsFunc(parts, jsonKey.MatchString) {
			return true
		}
		for _, p := range parts[:len(parts)-1] {
			if !d.members[p] && !d.locals[p] {
				return false
			}
		}
	}
	return d.members[parts[len(parts)-1]]
}

// allMembers reports whether every name is a declared member.
func (d *decls) allMembers(names []string) bool {
	for _, n := range names {
		if !d.members[n] {
			return false
		}
	}
	return true
}

// mixedCase reports whether s holds both upper- and lower-case letters.
func mixedCase(s string) bool {
	return strings.ToLower(s) != s && strings.ToUpper(s) != s
}
