package parallex_test

// Documentation gates for the public surface: every exported identifier
// in the facade (package parallex) and the global address space
// (internal/agas) must carry a doc comment. The AGAS is the package other
// layers reason about most — directory versus cache versus forwarding
// semantics are exactly the kind of contract that silently rots without
// godoc — so it is held to the facade's standard.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// undocumented collects the exported top-level identifiers of the package
// in dir that have neither their own doc comment nor a covering group
// comment.
func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	noTests := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, noTests, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						missing = append(missing, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range sp.Names {
								if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
									missing = append(missing, name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing
}

func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/agas", "internal/wire"} {
		if missing := undocumented(t, dir); len(missing) != 0 {
			t.Errorf("%s: exported identifiers without doc comments: %v", dir, missing)
		}
	}
}
