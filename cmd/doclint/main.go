// Command doclint enforces godoc coverage: every exported top-level
// identifier (type, function, method, constant, variable) in the
// audited packages must carry a doc comment. With -docs it also checks
// that the markdown documents name real code: every backticked dotted
// or mixed-case Go name in them must resolve to a declaration of the
// Go code under the working directory (see checkDoc for what is out of
// scope), and none may cite a ROADMAP item by number. It is the
// documentation tier of `make docs` / `make check`.
//
// Usage:
//
//	doclint [-docs README.md,ARCHITECTURE.md] ./internal/telemetry ./internal/core
//
// Exit status is non-zero when any exported identifier is missing a
// comment, any document names no declaration or cites a ROADMAP item
// by number; each offender is printed as file:line: name.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	docs := flag.String("docs", "", "comma-separated markdown files whose backticked names must resolve")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: doclint [-docs file,...] <package-dir>...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var bad int
	for _, dir := range flag.Args() {
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exported identifier(s) missing doc comments\n", bad)
	}
	if *docs != "" {
		n, err := lintDocs(strings.Split(*docs, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "doclint: %d doc finding(s): backticked names that resolve to no declaration, or ROADMAP items cited by number\n", n)
		}
		bad += n
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// lintDocs checks the named markdown files against the declarations of
// the Go code under the working directory and reports the number of
// unresolved names and ROADMAP item citations.
func lintDocs(files []string) (int, error) {
	d, err := loadDecls(".")
	if err != nil {
		return 0, err
	}
	var bad int
	for _, name := range files {
		n, err := lintDoc(d, name, os.Stdout)
		if err != nil {
			return bad, err
		}
		bad += n
	}
	return bad, nil
}

// lintDir checks every non-test Go file of one package directory and
// reports the number of undocumented exported identifiers.
func lintDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	var bad int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return bad, err
		}
		bad += lintFile(fset, f)
	}
	return bad, nil
}

// lintFile reports undocumented exported top-level declarations of one
// parsed file.
func lintFile(fset *token.FileSet, f *ast.File) int {
	var bad int
	report := func(pos token.Pos, name string) {
		fmt.Printf("%s: %s\n", fset.Position(pos), name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method of an unexported type
			}
			report(d.Pos(), d.Name.Name)
		case *ast.GenDecl:
			if d.Doc != nil && len(d.Specs) == 1 {
				continue // doc on the declaration covers a single spec
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						report(s.Pos(), s.Name.Name)
					}
				case *ast.ValueSpec:
					// A grouped const/var block with a group comment is
					// acceptable godoc style; individual specs inside an
					// undocumented group still need their own comments.
					if s.Doc != nil || s.Comment != nil || d.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), n.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedReceiver reports whether a method receiver names an exported
// type (methods of unexported types are not part of the godoc surface).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true // unknown shape: err on the side of checking
		}
	}
}
