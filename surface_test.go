package gdp

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported declarations that no non-test file
// uses yet and that stay anyway, each with its reason: the ROADMAP item that
// will call it, or the test in another package that reads it. Keys are
// "<import path>.<Name>" or "<import path>.<Type>.<Method>".
var surfaceAllowlist = map[string]string{
	"repro.ScenariosResponse": "wire type of GET /v1/scenarios; clients decode it",

	// ROADMAP items that will call these.
	"repro/internal/dief.Estimator.InterferenceBreakdown": "ROADMAP 18(b) attributes λ̂'s bias with it",
	"repro/internal/partition.EstimateSTP":                "ROADMAP 3(a) reports estimated system throughput",
	"repro/internal/memsys.System.PendingCount":           "ROADMAP 8(b) exports the memory system's queue depth; sim TestNextEventBoundsHold fingerprints it",
	"repro/internal/core.GDP.Diagnostics":                 "ROADMAP 11(a) prints the paper's per-interval quantities",

	// Read by a test in another package.
	"repro/internal/memsys.System.ControllerTicks": "sim TestStepperTicksOnlyDueComponents counts the controller's ticks",
	"repro/internal/memsys.System.Ring":            "sim TestNextEventBoundsHold fingerprints the ring",
	"repro/internal/memsys.System.Stats":           "sim TestNextEventBoundsHold fingerprints the memory system",
	"repro/internal/dram.Controller.Stats":         "sim TestNextEventBoundsHold fingerprints the DRAM controller",
	"repro/internal/ring.Ring.Delivered":           "sim TestNextEventBoundsHold fingerprints the ring",
	"repro/internal/ring.Ring.TotalQueueing":       "sim TestNextEventBoundsHold fingerprints the ring",
	"repro/internal/cache.Cache.OccupancyByCore":   "memsys TestPartitionLimitsOccupancy checks the partitioned LLC's occupancy",
	"repro/internal/metrics.ANTT":                  "root TestPublicEndToEndRun computes it over a public run",
}

// TestExportedNamesHaveCallers is a source check over every non-test file in
// the module (benchmark/, cmd/ and examples/ included): an exported name is
// surface that someone must read, so it has to earn a caller.
//
//   - Under internal/, every exported func, method, type, var and const is
//     used by some non-test file, satisfies an interface (methods only), or
//     is on surfaceAllowlist.
//   - In the root package, every declaration that `make diet` counts
//     (top-level, ungrouped, exported func, type, var or const) is named by a
//     non-test file outside the root package, is a type that appears in
//     another exported root signature or field, or is on surfaceAllowlist.
//
// A name that only tests use is deleted, unexported, or reached through the
// non-test path that already gives the test its value.
func TestExportedNamesHaveCallers(t *testing.T) {
	m := checkModule(t)

	used := map[types.Object]bool{}
	external := map[types.Object]bool{} // named by a file outside the root package
	for id, obj := range m.info.Uses {
		obj = origin(obj)
		used[obj] = true
		if m.pathOf[m.fset.File(id.Pos())] != "repro" {
			external[obj] = true
		}
	}
	ifaces := m.interfacesByMethod()

	var unused []string
	seen := map[string]bool{}
	check := func(key string, ok bool) {
		seen[key] = true
		if _, allowed := surfaceAllowlist[key]; allowed {
			if ok {
				unused = append(unused, key+": on surfaceAllowlist but has a caller; drop the entry")
			}
			return
		}
		if !ok {
			unused = append(unused, key)
		}
	}
	for _, path := range m.paths {
		root := path == "repro"
		if !root && !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		hasCaller := func(obj types.Object) bool {
			if root {
				return external[obj] || m.inRootSignature(obj)
			}
			return used[obj]
		}
		for _, f := range m.files[path] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || (root && d.Recv != nil) {
						continue // make diet counts no methods
					}
					fn := m.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						check(path+"."+fn.Name(), hasCaller(fn))
						continue
					}
					recv := receiverNamed(fn)
					check(path+"."+recv.Obj().Name()+"."+fn.Name(), used[fn] || satisfiesInterface(recv, fn.Name(), ifaces))
				case *ast.GenDecl:
					if root && d.Lparen.IsValid() {
						continue // make diet counts no grouped declaration
					}
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							if name.IsExported() {
								check(path+"."+name.Name, hasCaller(m.info.Defs[name]))
							}
						}
					}
				}
			}
		}
	}
	for key, reason := range surfaceAllowlist {
		if strings.TrimSpace(reason) == "" {
			unused = append(unused, key+": allowlist entry without a reason")
		}
		if !seen[key] {
			unused = append(unused, key+": allowlist entry names no exported declaration")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported name without a caller: %s", u)
	}
	if len(seen) < 100 {
		t.Fatalf("checked only %d exported names; the module walk is broken", len(seen))
	}
}

// checkedModule holds every non-test package of the module, type-checked
// into one types.Info so that uses across packages resolve to one object.
type checkedModule struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	info   *types.Info
	files  map[string][]*ast.File // by import path
	pkgs   map[string]*types.Package
	paths  []string // import paths in directory-walk order
	pathOf map[*token.File]string
}

func checkModule(t *testing.T) *checkedModule {
	t.Helper()
	fset := token.NewFileSet()
	m := &checkedModule{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		files:  map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		pathOf: map[*token.File]string{},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		m.paths = append(m.paths, path)
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			m.files[path] = append(m.files[path], f)
			m.pathOf[fset.File(f.Pos())] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range m.paths {
		if _, err := m.check(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// check type-checks the module package at path once, after its imports.
func (m *checkedModule) check(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, m.files[path], m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

func (m *checkedModule) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *checkedModule) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.files[path]; ok {
		return m.check(path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// interfacesByMethod indexes by method name every interface the module can
// hand a value to: those its own code spells (named or literal) and the named
// interfaces of the packages it imports, plus error.
func (m *checkedModule) interfacesByMethod() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range m.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	for _, pkg := range m.pkgs {
		for _, imp := range pkg.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if obj, ok := scope.Lookup(name).(*types.TypeName); ok && obj.Exported() {
					add(obj.Type())
				}
			}
		}
	}
	return byMethod
}

// satisfiesInterface reports whether recv or *recv implements an interface
// that has a method called name.
func satisfiesInterface(recv *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces[name] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// inRootSignature reports whether obj is a type that appears in the signature
// of an exported root func, the signature of an exported method of another
// exported root type, the type of an exported root var, or the type of an
// exported field of another exported root struct.
func (m *checkedModule) inRootSignature(obj types.Object) bool {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	scope := m.pkgs["repro"].Scope()
	for _, name := range scope.Names() {
		other := scope.Lookup(name)
		if !other.Exported() || other == obj {
			continue
		}
		switch other := other.(type) {
		case *types.Func, *types.Var:
			if mentions(other.Type(), tn, nil) {
				return true
			}
		case *types.TypeName:
			named, ok := other.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() && mentions(fn.Type(), tn, nil) {
					return true
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && mentions(f.Type(), tn, nil) {
						return true
					}
				}
			}
		}
	}
	return false
}

// mentions reports whether typ spells the type named tn, looking through
// composite types, signatures and literal structs but not into other named
// types.
func mentions(typ types.Type, tn *types.TypeName, seen map[types.Type]bool) bool {
	if seen[typ] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[typ] = true
	switch typ := typ.(type) {
	case *types.Alias:
		return typ.Obj() == tn || mentions(typ.Rhs(), tn, seen)
	case *types.Named:
		if typ.Obj() == tn {
			return true
		}
		for i := 0; i < typ.TypeArgs().Len(); i++ {
			if mentions(typ.TypeArgs().At(i), tn, seen) {
				return true
			}
		}
	case *types.Pointer:
		return mentions(typ.Elem(), tn, seen)
	case *types.Slice:
		return mentions(typ.Elem(), tn, seen)
	case *types.Array:
		return mentions(typ.Elem(), tn, seen)
	case *types.Chan:
		return mentions(typ.Elem(), tn, seen)
	case *types.Map:
		return mentions(typ.Key(), tn, seen) || mentions(typ.Elem(), tn, seen)
	case *types.Signature:
		return mentions(typ.Params(), tn, seen) || mentions(typ.Results(), tn, seen)
	case *types.Tuple:
		for i := 0; i < typ.Len(); i++ {
			if mentions(typ.At(i).Type(), tn, seen) {
				return true
			}
		}
	case *types.Struct:
		for i := 0; i < typ.NumFields(); i++ {
			if f := typ.Field(i); f.Exported() && mentions(f.Type(), tn, seen) {
				return true
			}
		}
	}
	return false
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(fn *types.Func) *types.Named {
	typ := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return typ.(*types.Named)
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}
