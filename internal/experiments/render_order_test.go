package experiments

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRenderMethodsSortMapKeys is a source check over this package's non-test
// files: a Render, String or Table method prints rows, and a range over a map
// prints them in Go's random map order. Every such range must only collect
// the keys into a slice that the method then sorts (sort.* or slices.Sort*).
// TestFig4Fig5FollowFig3Order pins the printed order of two figures; this
// guards every method that renders.
func TestRenderMethodsSortMapKeys(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("repro/internal/experiments", fset, files, info); err != nil {
		t.Fatal(err)
	}

	methods := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			switch fn.Name.Name {
			case "Render", "String", "Table":
			default:
				continue
			}
			methods++
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rng.X).Underlying().(*types.Map); isMap && !sortsKeys(info, fn.Body, rng) {
					t.Errorf("%s: %s ranges over a map without sorting its keys", fset.Position(rng.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	if methods == 0 {
		t.Fatal("found no Render, String or Table method to check")
	}
}

// sortsKeys reports whether rng only appends its key to a slice that body
// passes to a sort.* or slices.Sort* call.
func sortsKeys(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	call, isCall := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isCall || len(call.Args) != 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	keyObj := info.ObjectOf(key)
	if arg, ok := call.Args[1].(*ast.Ident); !ok || keyObj == nil || info.Uses[arg] != keyObj {
		return false
	}
	slice := info.Uses[dst]
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		name, ok := info.Uses[pkg].(*types.PkgName)
		if !ok {
			return true
		}
		path := name.Imported().Path()
		isSort := path == "sort" || (path == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		if arg, ok := call.Args[0].(*ast.Ident); ok && isSort && info.Uses[arg] == slice {
			sorted = true
		}
		return true
	})
	return sorted
}
