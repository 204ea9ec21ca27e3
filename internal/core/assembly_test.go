package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNodesAreAssembledOnlyInCore keeps a second node assembly from
// growing back beside the one in this package. Over every non-test file
// under internal/ and cmd/ it finds the two acts of provisioning that draw
// key material (dkg.Run, metarepo.GenesisRoot) and the two config literals
// a node object is built from, and allows each only where it is written
// down: once in this package, plus the named stand-alone demonstrations,
// each of which must still exist.
func TestNodesAreAssembledOnlyInCore(t *testing.T) {
	const module = "cicero/internal/"
	allowed := map[string]int{ // "site what" -> times seen
		"internal/core/boot.go controlplane.Config{}":        0,
		"internal/core/boot.go dataplane.Config{}":           0,
		"internal/core/provision.go dkg.Run()":               0,
		"internal/core/provision.go metarepo.GenesisRoot()":  0,
		"cmd/cicero-keygen/main.go dkg.Run()":                0, // the DKG / reshare demo
		"cmd/cicero-keygen/main.go metarepo.GenesisRoot()":   0, // its -metadata root
		"internal/experiments/tuf.go metarepo.GenesisRoot()": 0, // the store micro-benchmark's fixture
	}
	watched := map[string]bool{
		module + "controlplane.Config{}":  true,
		module + "dataplane.Config{}":     true,
		module + "tcrypto/dkg.Run()":      true,
		module + "metarepo.GenesisRoot()": true,
	}
	var strays []string
	inspectSources(t, func(rel string, imports map[string]string, n ast.Node) {
		var expr ast.Expr
		var shape string
		switch n := n.(type) {
		case *ast.CompositeLit:
			expr, shape = n.Type, "{}"
		case *ast.CallExpr:
			expr, shape = n.Fun, "()"
		}
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && watched[imports[pkg.Name]+"."+sel.Sel.Name+shape] {
			site := rel + " " + path.Base(imports[pkg.Name]) + "." + sel.Sel.Name + shape
			if _, ok := allowed[site]; ok {
				allowed[site]++
			} else {
				strays = append(strays, site)
			}
		}
	})
	sort.Strings(strays)
	if len(strays) > 0 {
		t.Errorf("nodes are provisioned and built in internal/core (Provision, BootController, BootSwitch); found outside it: %v", strays)
	}
	for site, seen := range allowed {
		if seen != 1 {
			t.Errorf("%s: seen %d times, want exactly 1 (an exception that is gone leaves this list; a second copy in core is a second assembly)", site, seen)
		}
	}
}

// inspectSources hands visit every syntax node of every non-test Go file
// under internal/ and cmd/, with the file's slash-separated path from the
// module root and its imports (local name -> import path).
func inspectSources(t *testing.T, visit func(rel string, imports map[string]string, n ast.Node)) {
	t.Helper()
	root := filepath.Join("..", "..")
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				return err
			}
			imports := make(map[string]string)
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
			rel, _ := filepath.Rel(root, file)
			ast.Inspect(f, func(n ast.Node) bool {
				visit(filepath.ToSlash(rel), imports, n)
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNodesAreReachedOnlyThroughCore keeps a private "run this on the node
// and wait" from growing back in a harness: outside this package nothing
// calls fabric.InvokeWait or a method of that name (Network.On is that
// call, under the one bound). The written exception is the shutdown of a
// cicero-node process, whose deployment is other processes: there is no
// core.Network to go through.
func TestNodesAreReachedOnlyThroughCore(t *testing.T) {
	const exception = "internal/distrib/node.go"
	var strays []string
	inCore, excepted := 0, 0
	inspectSources(t, func(rel string, _ map[string]string, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "InvokeWait" {
			switch {
			case strings.HasPrefix(rel, "internal/core/"):
				inCore++
			case rel == exception:
				excepted++
			default:
				strays = append(strays, rel)
			}
		}
	})
	if len(strays) > 0 {
		t.Errorf("node state is reached through core.Network (On, Settle, Tables, Ledgers); InvokeWait is called in: %v", strays)
	}
	if inCore != 1 || excepted != 1 {
		t.Errorf("InvokeWait is called %d times in internal/core and %d times in %s, want 1 (Network.On) and 1 (an exception that is gone leaves this test)",
			inCore, excepted, exception)
	}
}
