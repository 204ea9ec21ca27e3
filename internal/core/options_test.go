package core

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// optionAllowlist names the option fields that every non-test caller sets
// alike and that stay settable anyway, each with the reason. An entry that
// callers now set differently, or whose field is gone, fails the test.
var optionAllowlist = map[string]string{
	"core.Config.FailureDetector": "no deployment turns heartbeats on, but the detector's MsgHeartbeat is a wire type pinned in wire.golden; " +
		"controlplane's failure-detector tests run it",
}

// TestNoOptionEveryCallerSetsAlike keeps options that select nothing from
// growing back. Every exported field of a struct type declared under
// internal/ is an option. Every non-test file of the module that builds
// the type with a composite literal or a var declaration, or assigns or
// increments the field, is a caller; a default filled in under if x.F == 0 is not, and neither is a
// constructor in the type's own package. An option that every caller
// leaves unset, or sets to one and the same constant, is a constant: fold
// it into a named one where it is read, or allowlist it with the reason it
// must stay.
func TestNoOptionEveryCallerSetsAlike(t *testing.T) {
	alike, stale := sameValuedOptions(checkedModule(t), optionAllowlist)
	if len(alike) > 0 {
		t.Errorf("options every non-test caller sets alike (make them constants, or allowlist one that must stay, with the reason): %v", alike)
	}
	if len(stale) > 0 {
		t.Errorf("allowlist entries no longer needed (callers now differ, or the field is gone): %v", stale)
	}
}

// TestSameValuedOptionsFixtures shows the rule of
// TestNoOptionEveryCallerSetsAlike firing, and not firing, on small trees.
func TestSameValuedOptionsFixtures(t *testing.T) {
	const lib = "internal/lib/lib.go"
	const cfg = "package lib\ntype Config struct{ Size int; Name string; Debug bool }\n"
	for _, tc := range []struct {
		name  string
		files []source
		allow map[string]string
		alike []string
		stale []string
	}{
		{
			name: "every caller sets it to one constant",
			files: []source{
				{lib, cfg},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar name = \"a\"\nvar c = lib.Config{Size: 4, Name: name, Debug: true}\n"},
				{"cmd/b/main.go", "package main\nimport \"cicero/internal/lib\"\nconst four = 4\nvar c = &lib.Config{Size: four, Name: \"b\", Debug: false}\nvar d = lib.Config{4, \"d\", true}\n"},
			},
			alike: []string{"lib.Config.Size"},
		},
		{
			name: "no caller sets it",
			files: []source{
				{lib, cfg},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar n int\nvar c = lib.Config{Size: n, Name: \"a\"}\n"},
				{"cmd/b/main.go", "package main\nimport \"cicero/internal/lib\"\nvar c = lib.Config{Size: 8, Name: \"b\"}\n"},
			},
			alike: []string{"lib.Config.Debug"},
		},
		{
			name: "only a test sets it otherwise",
			files: []source{
				{lib, cfg},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar n int\nvar c = lib.Config{Size: n, Name: \"a\"}\n"},
				{"cmd/b/main.go", "package main\nimport \"cicero/internal/lib\"\nvar c = lib.Config{Size: 8, Name: \"b\", Debug: false}\n"},
				{"internal/lib/lib_test.go", "package lib\nvar c = Config{Debug: true}\n"},
			},
			alike: []string{"lib.Config.Debug"},
		},
		{
			name: "callers differ, or set it from a flag or after construction",
			files: []source{
				{lib, cfg},
				{"cmd/a/main.go", "package main\nimport (\"flag\"; \"cicero/internal/lib\")\nvar debug = flag.Bool(\"debug\", false, \"\")\nvar c = lib.Config{Size: 4, Name: \"a\", Debug: *debug}\n"},
				{"cmd/b/main.go", "package main\nimport \"cicero/internal/lib\"\nfunc build(name string) lib.Config { c := lib.Config{Size: 8}; c.Name = name; return c }\nvar c = build(\"b\")\n"},
			},
		},
		{
			name: "every caller leaves it to a default",
			files: []source{
				{lib, cfg + "func Open(c Config) int { if c.Size == 0 { c.Size = 8 }; return c.Size }\n"},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar name string\nvar debug bool\nvar n = lib.Open(lib.Config{Name: name, Debug: debug})\n"},
			},
			alike: []string{"lib.Config.Size"},
		},
		{
			name: "a struct not named as options",
			files: []source{
				{lib, "package lib\ntype Profile struct{ Name string; Budget int }\n" +
					"func (p Profile) Defaulted() Profile { if p.Budget == 0 { p.Budget = 8 }; return p }\n"},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar name string\nvar p = lib.Profile{Name: name}.Defaulted()\n"},
			},
			alike: []string{"lib.Profile.Budget"},
		},
		{
			name: "a constructor in the type's own package is not a caller",
			files: []source{
				{lib, "package lib\ntype Model struct{ Sign, Verify int }\n" +
					"func Calibrated() Model { m := Model{Sign: 50}; m.Verify = 130; return m }\n"},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar m = lib.Calibrated()\n"},
			},
		},
		{
			name: "a var declaration leaves every field zero, and in the type's own package is no caller",
			files: []source{
				{lib, "package lib\nimport \"sync/atomic\"\ntype Verdict struct{ Drop, Hold bool }\ntype Gate struct{ Open bool }\n" +
					"type Counters struct{ Hits atomic.Uint64 }\nvar Totals Counters\n"},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\n" +
					"func pick(bad bool) lib.Verdict { if bad { return lib.Verdict{Drop: true, Hold: true} }; var v lib.Verdict; return v }\n" +
					"var none *lib.Gate\nvar open = lib.Gate{Open: true}\n"},
			},
			alike: []string{"lib.Gate.Open"},
		},
		{
			name: "a counter incremented after construction",
			files: []source{
				{lib, "package lib\ntype Node struct{ Seen int }\nfunc New() *Node { return &Node{} }\n"},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nfunc main() { n := lib.New(); n.Seen++; _ = lib.Node{} }\n"},
			},
		},
		{
			name: "the allowlist covers it, and a stale entry",
			files: []source{
				{lib, cfg},
				{"cmd/a/main.go", "package main\nimport \"cicero/internal/lib\"\nvar n int\nvar c = lib.Config{Size: n, Name: \"a\"}\n"},
				{"cmd/b/main.go", "package main\nimport \"cicero/internal/lib\"\nvar c = lib.Config{Size: 8, Name: \"b\"}\n"},
			},
			allow: map[string]string{"lib.Config.Debug": "a fixture", "lib.Config.Size": "was a fixture"},
			stale: []string{"lib.Config.Size"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := checkModule(tc.files)
			if err != nil {
				t.Fatal(err)
			}
			alike, stale := sameValuedOptions(m, tc.allow)
			if !reflect.DeepEqual(alike, tc.alike) || !reflect.DeepEqual(stale, tc.stale) {
				t.Errorf("alike %v, stale %v; want %v, %v", alike, stale, tc.alike, tc.stale)
			}
		})
	}
}

// sameValuedOptions applies the rule of TestNoOptionEveryCallerSetsAlike
// to m. It returns, sorted, the options that every caller sets alike
// and that allow does not name, and the entries of allow that name no such
// option. An option is named "<dir under internal/>.<Type>.<Field>".
//
// A composite literal of a struct type sets each of its exported fields:
// to a constant's value, to the zero value when it leaves the field out or
// writes nil or a zero constant, and to something that varies otherwise.
// A var declaration of the struct type without a value is a literal that
// leaves every field out; in the type's own package it is a constructor.
// An assignment to the field sets it the same way, and a compound assignment or an
// inc/dec statement varies, except a default: x.F = c directly in the body
// of if x.F == zero reads the option rather than sets it. Each of these is
// a caller, except a literal in a constructor of the type's
// own package (a function that returns the type or a pointer to it): its
// values count, but it does not make the type's fields options. A struct
// that no non-test literal builds, or that has no caller,
// is not judged.
func sameValuedOptions(m *module, allow map[string]string) (alike, stale []string) {
	const zero, varies = "zero", "varies"
	valueOf := func(e ast.Expr) string {
		tv := m.info.Types[e]
		switch v := tv.Value; {
		case tv.IsNil(), v != nil && isZero(v):
			return zero
		case v != nil:
			return v.ExactString()
		}
		return varies
	}
	type option struct {
		name string
		typ  *types.TypeName
	}
	options := make(map[*types.Var]option)
	values := make(map[*types.Var]map[string]bool)
	set := func(v *types.Var, value string) {
		if values[v] == nil {
			values[v] = make(map[string]bool)
		}
		values[v][value] = true
	}
	called := make(map[types.Object]bool) // the types that have a caller, and the fields assigned
	// build records a literal of a struct under internal/ that sets the
	// fields given names, and leaves the others zero.
	build := func(t types.Type, given map[string]string, made map[types.Object]bool) {
		named, st := structType(t)
		if st == nil {
			return
		}
		dir := strings.TrimPrefix(named.Obj().Pkg().Path(), modulePath+"/internal/")
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if !field.Exported() {
				continue
			}
			options[field] = option{dir + "." + named.Obj().Name() + "." + field.Name(), named.Obj()}
			value, ok := given[field.Name()]
			if !ok {
				value = zero
			}
			set(field, value)
		}
		if !made[named.Obj()] {
			called[named.Obj()] = true
		}
	}
	// assign records a write to lhs with value, when lhs selects a field.
	assign := func(lhs ast.Expr, value string, made map[types.Object]bool) {
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if field, ok := m.info.Uses[sel.Sel].(*types.Var); ok && field.IsField() {
				set(field, value)
				if !made[field] {
					called[field] = true
				}
			}
		}
	}
	// zeroTest returns the field and the spelling of the operand x when
	// cond is x.F == zero.
	zeroTest := func(cond ast.Expr) (types.Object, string) {
		b, ok := cond.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL || valueOf(b.Y) != zero {
			return nil, ""
		}
		sel, ok := b.X.(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		return m.info.Uses[sel.Sel], types.ExprString(sel.X)
	}
	defaults := make(map[*ast.AssignStmt]bool)
	for _, p := range m.paths {
		for _, f := range m.pkgFiles[p] {
			for _, d := range f.Decls {
				// made holds the types d constructs, its own package's
				// structs among a function's results, and their fields.
				made := make(map[types.Object]bool)
				if fd, ok := d.(*ast.FuncDecl); ok {
					results := m.info.Defs[fd.Name].Type().(*types.Signature).Results()
					for i := 0; i < results.Len(); i++ {
						if named, st := structType(results.At(i).Type()); named != nil && named.Obj().Pkg().Path() == p {
							made[named.Obj()] = true
							for j := 0; j < st.NumFields(); j++ {
								made[st.Field(j)] = true
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						_, st := structType(m.info.Types[n].Type)
						if st == nil {
							return true
						}
						given := make(map[string]string)
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								given[kv.Key.(*ast.Ident).Name] = valueOf(kv.Value)
							} else {
								given[st.Field(i).Name()] = valueOf(el)
							}
						}
						build(m.info.Types[n].Type, given, made)
					case *ast.ValueSpec:
						// var x T builds T's zero value, var p *T none. In T's
						// own package it is a constructor, not a caller.
						if n.Type == nil || len(n.Values) > 0 {
							return true
						}
						t, own := m.info.Types[n.Type].Type, made
						named, _ := structType(t)
						if _, ptr := t.(*types.Pointer); ptr || named == nil {
							return true
						}
						if named.Obj().Pkg().Path() == p {
							own = map[types.Object]bool{named.Obj(): true}
						}
						build(t, nil, own)
					case *ast.IfStmt:
						// if x.F == 0 { x.F = c } fills in a default: it is
						// where the option is read, not a caller.
						if field, x := zeroTest(n.Cond); field != nil {
							for _, st := range n.Body.List {
								if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
									if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && m.info.Uses[sel.Sel] == field && types.ExprString(sel.X) == x {
										defaults[as] = true
									}
								}
							}
						}
					case *ast.AssignStmt:
						if defaults[n] {
							return true
						}
						for i, lhs := range n.Lhs {
							value := varies
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								value = valueOf(n.Rhs[i])
							}
							assign(lhs, value, made)
						}
					case *ast.IncDecStmt:
						assign(n.X, varies, made)
					}
					return true
				})
			}
		}
	}
	listed := make(map[string]bool)
	for field, o := range options {
		called[o.typ] = called[o.typ] || called[field]
	}
	for field, o := range options {
		if !called[o.typ] {
			continue
		}
		name := o.name
		listed[name] = true
		vs := values[field]
		same := len(vs) == 1 && !vs[varies]
		_, allowed := allow[name]
		if same && !allowed {
			alike = append(alike, name)
		}
		if allowed && !same {
			stale = append(stale, name)
		}
	}
	for name := range allow {
		if !listed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(alike)
	sort.Strings(stale)
	return alike, stale
}

// isZero reports whether v is its kind's zero: false, 0 or "".
func isZero(v constant.Value) bool {
	switch v.Kind() {
	case constant.Bool:
		return !constant.BoolVal(v)
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(v) == 0
	}
	return false
}

// structType returns t's named type and struct when t, or what it points
// to, is a struct declared under internal/; otherwise nil.
func structType(t types.Type) (*types.Named, *types.Struct) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), modulePath+"/internal/") {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}
