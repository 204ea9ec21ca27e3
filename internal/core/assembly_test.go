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
	root := filepath.Join("..", "..")
	var strays []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				return err
			}
			imports := make(map[string]string) // local name -> import path
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
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && watched[imports[pkg.Name]+"."+sel.Sel.Name+shape] {
					site := filepath.ToSlash(rel) + " " + path.Base(imports[pkg.Name]) + "." + sel.Sel.Name + shape
					if _, ok := allowed[site]; ok {
						allowed[site]++
					} else {
						strays = append(strays, site)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
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
