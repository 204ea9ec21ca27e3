package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names the exported declarations under internal/ that only
// tests reach and that stay exported anyway, each with the reason: a test
// in another package needs them. An entry that a non-test file reaches, or
// whose declaration is gone, fails the test.
var reachAllowlist = map[string]string{
	"controlplane.Controller.PeerView": "TestMembershipChangeNotifiesPeerDomains (this package) reads another domain's view after a membership change; " +
		"no ordered effect shows it, since any member a forwarded event reaches orders it for all",
	"tcrypto/pairing.Params.HashToScalar": "derives the fixtures of bls's TestGoldenVectors; testdata/vectors.golden must not move",
	"routing.LoadBalancer":                "the Fig. 3 scenario's app; TestCongestionFreedomWithLoadBalancer (this package) runs it under Cicero, and no experiment does yet",
	"routing.Rerouter":                    "the Fig. 2 scenario's app; TestLinkFailureReroutesWithoutBlackHole and the other reroute tests (this package) run it, and no experiment does yet",
}

// TestNoExportedNameOnlyTestsReach keeps code that no path runs from
// growing back. Every exported top-level func, method, type, var and const
// in a non-test file under internal/, and every exported method of an
// interface declared there, must be reached from some non-test file of the
// module (root package, cmd/, examples/, internal/, bench/), or be on
// reachAllowlist. A name that only tests reach goes, or moves into a
// _test.go file as the helper or oracle it is.
func TestNoExportedNameOnlyTestsReach(t *testing.T) {
	unreached, stale, err := unreachedExports(checkedModule(t), reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(unreached) > 0 {
		t.Errorf("exported names under internal/ that no non-test file reaches (delete them, move them into a _test.go file, or allowlist one a test in another package needs, with the reason): %v", unreached)
	}
	if len(stale) > 0 {
		t.Errorf("allowlist entries no longer needed (a non-test file reaches the name, or it is gone): %v", stale)
	}
}

// TestUnreachedExportsFixtures shows the rule of TestNoExportedNameOnlyTestsReach
// firing, and not firing, on small trees.
func TestUnreachedExportsFixtures(t *testing.T) {
	const lib = "internal/lib/lib.go"
	for _, tc := range []struct {
		name      string
		files     []source
		allow     map[string]string
		unreached []string
		stale     []string
	}{
		{
			name: "only a test calls it",
			files: []source{
				{lib, "package lib\nfunc Used() {}\nfunc Tested() {}\n"},
				{"internal/lib/lib_test.go", "package lib\nfunc init() { Tested() }\n"},
				{"internal/app/app.go", "package app\nimport \"cicero/internal/lib\"\nfunc run() { lib.Used() }\n"},
			},
			unreached: []string{"lib.Tested"},
		},
		{
			name: "a test in another package calls it",
			files: []source{
				{lib, "package lib\nfunc Tested() {}\n"},
				{"internal/app/app_test.go", "package app\nimport \"cicero/internal/lib\"\nfunc init() { lib.Tested() }\n"},
			},
			unreached: []string{"lib.Tested"},
		},
		{
			name: "the allowlist covers it",
			files: []source{
				{lib, "package lib\nfunc Tested() {}\n"},
			},
			allow: map[string]string{"lib.Tested": "a fixture"},
		},
		{
			name: "an allowlist entry no longer needed",
			files: []source{
				{lib, "package lib\nfunc Used() {}\n"},
				{"cmd/tool/main.go", "package main\nimport \"cicero/internal/lib\"\nfunc main() { lib.Used() }\n"},
			},
			allow: map[string]string{"lib.Used": "was a fixture", "lib.Gone": "was a fixture"},
			stale: []string{"lib.Gone", "lib.Used"},
		},
		{
			name: "only bench and cmd reach it",
			files: []source{
				{lib, "package lib\ntype Cache struct{}\nfunc (c *Cache) Warm() {}\nconst Size = 1\n"},
				{"bench/main.go", "package main\nimport l \"cicero/internal/lib\"\nfunc main() { var c l.Cache; c.Warm() }\n"},
				{"cmd/tool/main.go", "package main\nimport \"cicero/internal/lib\"\nvar n = lib.Size\n"},
			},
		},
		{
			name: "used only inside its own file",
			files: []source{
				{lib, "package lib\nvar Limit = 3\ntype Kind int\nfunc count(k Kind) int { return Limit }\n"},
			},
		},
		{
			name: "methods that satisfy heap.Interface",
			files: []source{
				{lib, `package lib
import "container/heap"
type queue []int
func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any) { *q = append(*q, x.(int)) }
func (q *queue) Pop() any { old := *q; x := old[len(old)-1]; *q = old[:len(old)-1]; return x }
func drain(q *queue) { heap.Init(q) }
`},
			},
		},
		{
			name: "a method an interface in the tree declares",
			files: []source{
				{lib, "package lib\ntype Namer interface{ Name() string }\ntype T struct{}\nfunc (T) Name() string { return \"t\" }\nfunc label(n Namer) string { return n.Name() }\nvar l = label(T{})\n"},
			},
		},
		{
			name: "a method only an interface nothing calls declares",
			files: []source{
				{lib, "package lib\ntype Namer interface{ Name() string }\ntype T struct{}\nfunc (T) Name() string { return \"t\" }\nvar def Namer = T{}\n"},
			},
			unreached: []string{"lib.Namer.Name", "lib.T.Name"},
		},
		{
			name: "a type only a compile-time assertion names",
			files: []source{
				{lib, "package lib\ntype Runner interface{ Run() }\ntype T struct{}\nfunc (T) Run() {}\nvar _ Runner = T{}\nfunc start(r Runner) { r.Run() }\n"},
			},
			unreached: []string{"lib.T", "lib.T.Run"},
		},
		{
			name: "a dead method whose name a live method of another type shares",
			files: []source{
				{lib, "package lib\ntype Live struct{}\nfunc (Live) Close() {}\ntype Dead struct{}\nfunc (Dead) Close() {}\nfunc stop(l Live, d Dead) { l.Close() }\n"},
			},
			unreached: []string{"lib.Dead.Close"},
		},
		{
			name: "a method reached through an embedded field and a type assertion",
			files: []source{
				{lib, "package lib\ntype inner struct{}\nfunc (inner) Flush() {}\nfunc (inner) Stats() int { return 0 }\ntype Outer struct{ inner }\n" +
					"func drain(o Outer, x any) int { o.Flush(); return x.(interface{ Stats() int }).Stats() }\nvar n = drain(Outer{}, Outer{})\n"},
			},
		},
		{
			name: "a standard-library function of its name does not reach a method",
			files: []source{
				{lib, "package lib\nimport \"strings\"\ntype Path string\nfunc (p Path) Split() []string { return nil }\nvar root Path\nvar parts = strings.Split(string(root), \"/\")\n"},
			},
			unreached: []string{"lib.Path.Split"},
		},
		{
			name: "its own declaration and its receiver do not reach it",
			files: []source{
				{lib, "package lib\ntype Walker struct{}\nfunc (w *Walker) Step(n int) { if n > 0 { w.Step(n - 1) } }\nfunc Loop() { Loop() }\n"},
			},
			unreached: []string{"lib.Loop", "lib.Walker", "lib.Walker.Step"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := checkModule(tc.files)
			if err != nil {
				t.Fatal(err)
			}
			unreached, stale, err := unreachedExports(m, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(unreached, tc.unreached) || !reflect.DeepEqual(stale, tc.stale) {
				t.Errorf("unreached %v, stale %v; want %v, %v", unreached, stale, tc.unreached, tc.stale)
			}
		})
	}
}

// source is one Go file: its slash-separated path from the module root and
// its text.
type source struct{ path, text string }

// The module's non-test files, type-checked once per test binary: both
// guards read them, and checking the standard library from source takes
// seconds.
var (
	moduleOnce sync.Once
	theModule  *module
	moduleErr  error
)

// checkedModule returns the module's non-test files, type-checked.
func checkedModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() {
		files, err := moduleSources()
		if err == nil {
			theModule, err = checkModule(files)
		}
		moduleErr = err
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return theModule
}

// moduleSources reads every non-test Go file of the module, outside
// testdata and hidden directories.
func moduleSources() ([]source, error) {
	var files []source
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		text, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		files = append(files, source{path: filepath.ToSlash(rel), text: string(text)})
		return nil
	})
	return files, err
}

// module is the module's non-test files, type-checked together.
type module struct {
	pkgFiles   map[string][]*ast.File // import path -> its non-test files
	paths      []string               // the import paths, sorted
	info       *types.Info
	std        types.Importer
	stdImports map[string]bool // standard packages the files import
}

// modulePath is the module's path in go.mod.
const modulePath = "cicero"

// checkModule parses and type-checks the non-test files among files, the
// standard library from source.
func checkModule(files []source) (*module, error) {
	fset := token.NewFileSet()
	m := &module{
		pkgFiles:   make(map[string][]*ast.File),
		stdImports: make(map[string]bool),
		info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
		std: importer.ForCompiler(fset, "source", nil),
	}
	for _, src := range files {
		if strings.HasSuffix(src.path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, src.path, src.text, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p := modulePath
		if dir := path.Dir(src.path); dir != "." {
			p += "/" + dir
		}
		m.pkgFiles[p] = append(m.pkgFiles[p], f)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
				m.stdImports[p] = true
			}
		}
	}
	checked := make(map[string]*types.Package)
	var check func(string) (*types.Package, error)
	check = func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		pf, ok := m.pkgFiles[p]
		if !ok {
			return m.std.Import(p)
		}
		conf := types.Config{Importer: importerFunc(check)}
		pkg, err := conf.Check(p, fset, pf, m.info)
		if err != nil {
			return nil, err
		}
		checked[p] = pkg
		return pkg, nil
	}
	for p := range m.pkgFiles {
		m.paths = append(m.paths, p)
	}
	sort.Strings(m.paths)
	for _, p := range m.paths {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// unreachedExports applies the rule of TestNoExportedNameOnlyTestsReach to
// m. It returns, sorted, the declarations that nothing reaches and that
// allow does not name, and the entries of allow that name no such
// declaration. A declaration is named "<dir under internal/>.<Name>", a
// method "<dir>.<Type>.<Name>".
//
// The rule resolves types (m is type-checked, the standard library from
// source), and a declaration is reached by an
// identifier outside its own declaration that denotes it. A declaring
// identifier, a method's receiver and a var _ I = (*T)(nil) assertion do
// not count. A concrete method of a reached type is also reached when it
// implements a method of an interface that is itself reached: one of the
// module's whose method a non-test file calls, or an
// exported one of a standard-library package the module imports, which
// the library calls (sort.Interface, heap.Interface, fmt.Stringer), or
// error.
func unreachedExports(m *module, allow map[string]string) (unreached, stale []string, err error) {
	info, pkgFiles := m.info, m.pkgFiles

	// The declarations, each with the span of its own declaration.
	type span struct{ pos, end token.Pos }
	decls := make(map[types.Object]string)
	own := make(map[types.Object]span)
	receivers := make(map[*ast.Ident]bool)
	declare := func(dir string, id *ast.Ident, owner ast.Node, name string) {
		if obj := info.Defs[id]; obj != nil && id.IsExported() {
			decls[obj] = dir + "." + name
			own[obj] = span{owner.Pos(), owner.End()}
		}
	}
	for _, p := range m.paths {
		dir, ok := strings.CutPrefix(p, modulePath+"/internal/")
		if !ok {
			continue
		}
		for _, f := range pkgFiles[p] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(dir, d.Name, d, d.Name.Name)
						continue
					}
					recv := receiverIdent(d.Recv.List[0].Type)
					receivers[recv] = true
					declare(dir, d.Name, d, recv.Name+"."+d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(dir, s.Name, s, s.Name.Name)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										declare(dir, id, m, s.Name.Name+"."+id.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(dir, id, s, id.Name)
							}
						}
					}
				}
			}
		}
	}

	// A compile-time assertion, var _ I = (*T)(nil), runs nothing.
	var assertions []span
	for _, pf := range pkgFiles {
		for _, f := range pf {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.VAR {
					for _, spec := range d.Specs {
						if s := spec.(*ast.ValueSpec); len(s.Names) == 1 && s.Names[0].Name == "_" {
							assertions = append(assertions, span{s.Pos(), s.End()})
						}
					}
				}
			}
		}
	}
	within := func(pos token.Pos, spans ...span) bool {
		for _, s := range spans {
			if pos >= s.pos && pos < s.end {
				return true
			}
		}
		return false
	}
	reached := make(map[types.Object]bool)
	for id, obj := range info.Uses {
		if s, ok := own[obj]; (ok && within(id.Pos(), s)) || receivers[id] || within(id.Pos(), assertions...) {
			continue
		}
		reached[obj] = true
	}

	// A method an interface's reached method dispatches to is reached too.
	var ifaces []*types.Interface
	var named []*types.Named
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			ifaces = append(ifaces, it)
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else {
					named = append(named, n)
				}
			}
		}
	}
	stdIfaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for p := range m.stdImports {
		pkg, err := m.std.Import(p)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					stdIfaces = append(stdIfaces, it)
				}
			}
		}
	}
	dispatch := func(it *types.Interface, called func(*types.Func) bool) {
		if it.NumMethods() == 0 {
			return
		}
		for _, n := range named {
			if _, allowed := allow[decls[n.Obj()]]; !reached[n.Obj()] && !allowed {
				continue // nothing holds a value of it to call through it
			}
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if m := it.Method(i); called(m) {
						obj, _, _ := types.LookupFieldOrMethod(t, false, n.Obj().Pkg(), m.Name())
						reached[obj] = true
					}
				}
				break
			}
		}
	}
	for _, it := range ifaces {
		dispatch(it, func(m *types.Func) bool { return reached[m] })
	}
	for _, it := range stdIfaces {
		dispatch(it, func(*types.Func) bool { return true })
	}

	listed := make(map[string]bool)
	for obj, name := range decls {
		listed[name] = true
		_, allowed := allow[name]
		if !reached[obj] && !allowed {
			unreached = append(unreached, name)
		}
		if allowed && reached[obj] {
			stale = append(stale, name)
		}
	}
	for name := range allow {
		if !listed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverIdent is the identifier naming a method's receiver type: T for
// T, *T, T[P] and *T[P].
func receiverIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}
