package simcal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Every testing/quick property in the module draws its inputs from a
// fixed source, so a failure it finds is found again on the next run. A
// quick.Config literal without Rand, or a nil config, seeds from the
// clock instead.
func TestQuickChecksAreSeeded(t *testing.T) {
	fset := token.NewFileSet()
	configs := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		quick := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "testing/quick" {
				quick = "quick"
				if imp.Name != nil {
					quick = imp.Name.Name
				}
			}
		}
		if quick == "" {
			return nil
		}
		is := func(e ast.Expr, name string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != name {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == quick
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !is(n.Type, "Config") {
					break
				}
				configs++
				seeded := false
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Rand" {
							seeded = true
						}
					}
				}
				if !seeded {
					t.Errorf("%s: a quick.Config without Rand draws new inputs every run", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				if (is(n.Fun, "Check") || is(n.Fun, "CheckEqual")) && len(n.Args) > 0 {
					if id, ok := n.Args[len(n.Args)-1].(*ast.Ident); ok && id.Name == "nil" {
						t.Errorf("%s: a nil quick.Config draws new inputs every run", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if configs == 0 {
		t.Fatal("no quick.Config literal found: the walk checked nothing")
	}
}
