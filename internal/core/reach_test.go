package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
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
}

// TestNoExportedNameOnlyTestsReach keeps code that no path runs from
// growing back. Every exported top-level func, method, type, var and const
// in a non-test file under internal/ must be named by some non-test file of
// the module (root package, cmd/, examples/, internal/, bench/), or be on
// reachAllowlist. A name that only tests reach goes, or moves into a
// _test.go file as the helper or oracle it is.
func TestNoExportedNameOnlyTestsReach(t *testing.T) {
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
		if !strings.HasSuffix(name, ".go") {
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
	if err != nil {
		t.Fatal(err)
	}
	unreached, stale, err := unreachedExports(files, reachAllowlist)
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
				{lib, "package lib\ntype Namer interface{ Name() string }\ntype T struct{}\nfunc (T) Name() string { return \"t\" }\nvar _ Namer = T{}\n"},
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
			unreached, stale, err := unreachedExports(tc.files, tc.allow)
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

// stdInterfaceMethods are the methods the standard library calls through
// an interface no file of the module declares: sort.Interface and
// heap.Interface.
var stdInterfaceMethods = []string{"Len", "Less", "Swap", "Push", "Pop"}

// unreachedExports applies the rule of TestNoExportedNameOnlyTestsReach to
// files. It returns, sorted, the declarations that nothing reaches and that
// allow does not name, and the entries of allow that name no such
// declaration. A declaration is named "<dir under internal/>.<Name>", a
// method "<dir>.<Type>.<Name>".
//
// The rule is syntactic. A package-level name is reached by a bare
// identifier in a non-test file of its own package, or by a selector on an
// import of that package, outside its own declaration; a declaring
// identifier and a method's receiver do not count. A method is reached by a
// selector of its name anywhere outside its own declaration, and a method
// whose name an interface declares (in the tree, or stdInterfaceMethods) is
// exempt: it is called through that interface.
func unreachedExports(files []source, allow map[string]string) (unreached, stale []string, err error) {
	const module = "cicero/"
	type decl struct {
		method string // the method's name; empty for a package-level name
		origin ast.Node
	}
	decls := make(map[string]decl)            // name -> its declaration
	reachedAt := make(map[string][]ast.Node)  // package-level name -> declarations naming it
	selectedAt := make(map[string][]ast.Node) // method name -> declarations selecting it
	viaInterface := make(map[string]bool)
	for _, m := range stdInterfaceMethods {
		viaInterface[m] = true
	}
	for _, src := range files {
		if strings.HasSuffix(src.path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), src.path, src.text, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		dir := strings.TrimPrefix(path.Dir(src.path), "internal/")
		declares := strings.HasPrefix(src.path, "internal/")
		imports := make(map[string]string) // local name -> dir of a module package, "" outside the module
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ""
			if strings.HasPrefix(p, module) {
				imports[name] = strings.TrimPrefix(strings.TrimPrefix(p, module), "internal/")
			}
		}
		// visit records what a node reaches from origin, the top-level
		// declaration being walked.
		var origin ast.Node
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						viaInterface[name.Name] = true
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						if pkg != "" {
							reachedAt[pkg+"."+n.Sel.Name] = append(reachedAt[pkg+"."+n.Sel.Name], origin)
						}
						return false
					}
				}
				selectedAt[n.Sel.Name] = append(selectedAt[n.Sel.Name], origin)
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				reachedAt[dir+"."+n.Name] = append(reachedAt[dir+"."+n.Name], origin)
			}
			return true
		}
		// Declaring identifiers and receivers are not walked.
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if declares && d.Name.IsExported() {
					if d.Recv == nil {
						decls[dir+"."+d.Name.Name] = decl{origin: d}
					} else {
						decls[dir+"."+receiverType(d.Recv.List[0].Type)+"."+d.Name.Name] = decl{method: d.Name.Name, origin: d}
					}
				}
				origin = d
				ast.Inspect(d.Type, visit)
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					origin = spec
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if declares && s.Name.IsExported() {
							decls[dir+"."+s.Name.Name] = decl{origin: s}
						}
						if s.TypeParams != nil {
							ast.Inspect(s.TypeParams, visit)
						}
						ast.Inspect(s.Type, visit)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if declares && name.IsExported() {
								decls[dir+"."+name.Name] = decl{origin: s}
							}
						}
						if s.Type != nil {
							ast.Inspect(s.Type, visit)
						}
						for _, v := range s.Values {
							ast.Inspect(v, visit)
						}
					}
				}
			}
		}
	}
	reachedElsewhere := func(sites []ast.Node, origin ast.Node) bool {
		for _, site := range sites {
			if site != origin {
				return true
			}
		}
		return false
	}
	for name, d := range decls {
		var reached bool
		if d.method != "" {
			reached = viaInterface[d.method] || reachedElsewhere(selectedAt[d.method], d.origin)
		} else {
			reached = reachedElsewhere(reachedAt[name], d.origin)
		}
		_, allowed := allow[name]
		if !reached && !allowed {
			unreached = append(unreached, name)
		}
		if allowed && reached {
			stale = append(stale, name)
		}
	}
	for name := range allow {
		if _, ok := decls[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale, nil
}

// receiverType is the name of a method's receiver type: T for T, *T, T[P]
// and *T[P].
func receiverType(x ast.Expr) string {
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
			return e.Name
		default:
			return ""
		}
	}
}
