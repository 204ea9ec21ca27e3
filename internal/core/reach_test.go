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
			name: "a method of a generic type, reached through an instantiation",
			files: []source{
				{lib, "package lib\ntype Queue[E any] struct{ items []E }\nfunc (q *Queue[E]) Add(e E) { q.items = append(q.items, e) }\nfunc (q *Queue[E]) Drop() {}\n"},
				{"internal/app/app.go", "package app\nimport \"cicero/internal/lib\"\nfunc run(q *lib.Queue[int]) { q.Add(1) }\n"},
			},
			unreached: []string{"lib.Queue.Drop"},
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

// fieldAllowlist names the struct types, or single fields, under internal/
// that stay although TestEveryFieldHasAReader finds no reader, each with the
// reason. An entry that covers no unread field fails the test.
var fieldAllowlist = map[string]string{
	"openflow.PacketOut": "the §2.2 attacker's packet: a switch refuses it by type, and reads none of it",
}

// TestEveryFieldHasAReader keeps state that nothing consults from growing
// back. Every exported field of every struct type declared in a non-test
// file under internal/ must be read by some non-test file of the module.
// Assigning to a field, incrementing it and naming it as a composite-literal
// key do not read it; an embedded field is read when one of its promoted
// fields or methods is. Two kinds of field are read by design when a test
// reads them: a counter, which a non-test file increments (++, -- or +=),
// and a field of a record that a non-test function returns (by value,
// through a pointer, or as the elements of a slice, array or map). Neither
// holds for a wire type: every field of a type registered through
// register[…] in internal/protocol, and of every struct of the module those
// types carry, needs a non-test reader, since its receivers are other nodes.
// A field that no file reads goes, with the code that fills it.
func TestEveryFieldHasAReader(t *testing.T) {
	unread, stale := unreadFields(checkedModule(t), fieldAllowlist)
	if len(unread) > 0 {
		t.Errorf("fields that no non-test file reads (delete them with what fills them, or land their reader): %v", unread)
	}
	if len(stale) > 0 {
		t.Errorf("allowlist entries no longer needed (every field they cover is read, or they are gone): %v", stale)
	}
}

// TestUnreadWireFieldsFixtures shows the rule of TestEveryFieldHasAReader
// firing, and not firing, on small trees.
func TestUnreadWireFieldsFixtures(t *testing.T) {
	const wire = "internal/protocol/wire.go"
	const codec = "package protocol\nfunc register[T any]() {}\n"
	const lib = "internal/lib/lib.go"
	for _, tc := range []struct {
		name   string
		files  []source
		allow  map[string]string
		unread []string
		stale  []string
	}{
		{
			name: "written, incremented, or a literal key, and never read",
			files: []source{
				{wire, codec + "type Msg struct{ Seq, Count, Tag, Read int }\nfunc init() { register[Msg]() }\n"},
				{"internal/app/app.go", "package app\nimport \"cicero/internal/protocol\"\n" +
					"func send(m *protocol.Msg) int { m.Seq = 1; m.Count++; *m = protocol.Msg{Tag: 2}; return m.Read }\n"},
			},
			unread: []string{"protocol.Msg.Count", "protocol.Msg.Seq", "protocol.Msg.Tag"},
		},
		{
			name: "read by a receiver",
			files: []source{
				{wire, codec + "type Msg struct{ Seq int; Peers map[string]int }\nfunc init() { register[Msg]() }\n"},
				{"cmd/node/main.go", "package main\nimport \"cicero/internal/protocol\"\n" +
					"func handle(m protocol.Msg) int { m.Peers[\"a\"] = 1; return m.Seq + len(m.Peers) }\nfunc main() {}\n"},
			},
		},
		{
			name: "a nested struct through a slice, a map and a pointer",
			files: []source{
				{wire, codec + "type Msg struct{ Items []Item; ByName map[string]Inner; Last *Leaf }\n" +
					"type Item struct{ A, B int }\ntype Inner struct{ C, D int }\ntype Leaf struct{ E, F int }\n" +
					"func init() { register[Msg]() }\n" +
					"func handle(m Msg) int { n := m.Items[0].A + m.ByName[\"x\"].C + m.Last.E; m.Last.F = n; return n }\n"},
			},
			unread: []string{"protocol.Inner.D", "protocol.Item.B", "protocol.Leaf.F"},
		},
		{
			name: "a struct of another package, read only in a test",
			files: []source{
				{wire, "package protocol\nimport \"cicero/internal/ids\"\nfunc register[T any]() {}\n" +
					"type Msg struct{ ID ids.ID }\nfunc init() { register[Msg]() }\nfunc handle(m Msg) ids.ID { return m.ID }\n"},
				{"internal/ids/ids.go", "package ids\ntype ID struct{ Origin string; Seq uint64 }\nfunc (id ID) Name() string { return id.Origin }\n"},
				{"internal/ids/ids_test.go", "package ids\nfunc seq(id ID) uint64 { return id.Seq }\n"},
			},
			unread: []string{"ids.ID.Seq"},
		},
		{
			name: "a counter and a returned record on the wire, read only in a test",
			files: []source{
				{wire, codec + "type Msg struct{ Seq, Sent int }\nfunc init() { register[Msg]() }\nfunc (m *Msg) Send() *Msg { m.Sent++; return m }\n"},
				{"internal/protocol/wire_test.go", "package protocol\nfunc check(m *Msg) bool { return m.Send().Sent+m.Seq > 0 }\n"},
			},
			unread: []string{"protocol.Msg.Sent", "protocol.Msg.Seq"},
		},
		{
			name: "the allowlist covers a type, and a stale entry",
			files: []source{
				{wire, codec + "type Probe struct{ Payload string }\ntype Msg struct{ Seq int }\n" +
					"func init() { register[Probe](); register[Msg]() }\nfunc handle(m Msg) int { return m.Seq }\n"},
			},
			allow: map[string]string{"protocol.Probe": "a fixture", "protocol.Msg": "was a fixture", "protocol.Gone": "was a fixture"},
			stale: []string{"protocol.Gone", "protocol.Msg"},
		},
		{
			name: "a field no file reads, tests included, on a struct no message carries",
			files: []source{
				{lib, "package lib\ntype Cache struct{ Size, Hits int }\nfunc (c *Cache) Grow() int { c.Hits = 0; c.Size *= 2; return c.Size }\n"},
				{"internal/lib/lib_test.go", "package lib\nvar grown = (&Cache{Size: 1, Hits: 2}).Grow()\n"},
				{"cmd/tool/main.go", "package main\nimport \"cicero/internal/lib\"\nfunc main() { new(lib.Cache).Grow() }\n"},
			},
			unread: []string{"lib.Cache.Hits"},
		},
		{
			name: "a counter and a result field that only a test reads",
			files: []source{
				{lib, "package lib\ntype Node struct{ Seen, Lost, Dropped int }\n" +
					"func (n *Node) Recv(ok bool) { if ok { n.Seen++ } else { n.Lost += 1; n.Dropped++ } }\n" +
					"type Outcome struct{ Flows, Steps int }\nfunc Run() Outcome { return Outcome{Flows: 2, Steps: 3} }\n"},
				{"internal/lib/lib_test.go", "package lib\nfunc check(n *Node) bool { return n.Seen+n.Lost > 0 && Run().Flows == 2 }\n"},
			},
			unread: []string{"lib.Node.Dropped", "lib.Outcome.Steps"},
		},
		{
			name: "an embedded field read through a promoted member",
			files: []source{
				{lib, "package lib\nimport \"sync\"\ntype Totals struct{ Sent int }\n" +
					"type Stats struct{ Totals; sync.Mutex; Extra Totals }\n" +
					"func load(s *Stats) int { s.Lock(); defer s.Unlock(); s.Extra.Sent = 1; return s.Sent }\n"},
			},
			unread: []string{"lib.Stats.Extra"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := checkModule(tc.files)
			if err != nil {
				t.Fatal(err)
			}
			unread, stale := unreadFields(m, tc.allow)
			if !reflect.DeepEqual(unread, tc.unread) || !reflect.DeepEqual(stale, tc.stale) {
				t.Errorf("unread %v, stale %v; want %v, %v", unread, stale, tc.unread, tc.stale)
			}
		})
	}
}

// unreadFields applies the rule of TestEveryFieldHasAReader to m. It
// returns, sorted, the fields that fail it and that allow names neither by
// type nor by field, and the entries of allow that cover no such field. A
// field is named "<dir under internal/>.<Type>.<Field>", a type
// "<dir>.<Type>".
//
// A field is read by an identifier that denotes it, except the field a
// target of an assignment or an inc/dec statement selects (through the
// fields, indexes and dereferences of that target) and the key of a
// composite literal. An embedded field is also read by a selector, not such
// a target, that reaches a promoted member through it.
func unreadFields(m *module, allow map[string]string) (unread, stale []string) {
	// The fields, each with its struct.
	owner := make(map[*types.Var]*types.TypeName)
	for _, p := range m.paths {
		if !strings.HasPrefix(p, modulePath+"/internal/") {
			continue
		}
		for _, f := range m.pkgFiles[p] {
			for _, d := range f.Decls {
				d, ok := d.(*ast.GenDecl)
				if !ok || d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					tn := m.info.Defs[spec.(*ast.TypeSpec).Name].(*types.TypeName)
					if st, ok := tn.Type().Underlying().(*types.Struct); ok && !tn.IsAlias() {
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); f.Exported() {
								owner[f] = tn
							}
						}
					}
				}
			}
		}
	}
	name := func(tn *types.TypeName) string {
		return strings.TrimPrefix(tn.Pkg().Path(), modulePath+"/internal/") + "." + tn.Name()
	}

	// The wire types: register[T] in internal/protocol, and the module's
	// structs they carry (through pointers, slices, arrays and maps). Their
	// receivers are other nodes, so a test's read counts for none of their
	// fields.
	wire := make(map[*types.TypeName]bool)
	seen := make(map[*types.Named]bool)
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Named:
			t = t.Origin()
			if seen[t] || t.Obj().Pkg() == nil || !strings.HasPrefix(t.Obj().Pkg().Path(), modulePath+"/") {
				return
			}
			seen[t] = true
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				walk(t.Underlying())
				return
			}
			wire[t.Obj()] = true
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f] = t.Obj()
					walk(f.Type())
				}
			}
		}
	}
	for _, f := range m.pkgFiles[modulePath+"/internal/protocol"] {
		ast.Inspect(f, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok {
				if id, ok := ix.X.(*ast.Ident); ok && id.Name == "register" {
					walk(m.info.Types[ix.Index].Type)
				}
			}
			return true
		})
	}

	// The records non-test functions return.
	results := make(map[*types.TypeName]bool)
	returns := func(sig *types.Signature) {
		for i := 0; i < sig.Results().Len(); i++ {
			t := sig.Results().At(i).Type()
			for t != nil {
				switch u := t.(type) {
				case *types.Pointer:
					t = u.Elem()
				case *types.Slice:
					t = u.Elem()
				case *types.Array:
					t = u.Elem()
				case *types.Map:
					t = u.Elem()
				case *types.Named:
					results[u.Origin().Obj()] = true
					t = nil
				default:
					t = nil
				}
			}
		}
	}

	// Who reads each field, and which fields non-test files count with.
	type readers struct{ prod, test bool }
	read := make(map[*types.Var]*readers)
	reads := func(v *types.Var, at token.Pos) {
		v = v.Origin()
		if owner[v] == nil {
			return
		}
		if read[v] == nil {
			read[v] = new(readers)
		}
		if m.inTest(at) {
			read[v].test = true
		} else {
			read[v].prod = true
		}
	}
	counter := make(map[*types.Var]bool)
	written := make(map[*ast.Ident]bool)
	target := func(x ast.Expr, counts bool) {
		for {
			switch e := x.(type) {
			case *ast.SelectorExpr:
				if v, ok := m.info.Uses[e.Sel].(*types.Var); ok && counts && !m.inTest(e.Pos()) {
					counter[v.Origin()] = true
				}
				written[e.Sel] = true
				x, counts = e.X, false
			case *ast.IndexExpr:
				x = e.X
			case *ast.StarExpr:
				x = e.X
			case *ast.ParenExpr:
				x = e.X
			default:
				return
			}
		}
	}
	for _, p := range m.paths {
		for _, files := range [][]*ast.File{m.pkgFiles[p], m.testFiles[p]} {
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							target(lhs, n.Tok == token.ADD_ASSIGN)
						}
					case *ast.IncDecStmt:
						target(n.X, true)
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							written[id] = true
						}
					case *ast.SelectorExpr:
						// The embedded fields a promoted member is reached through.
						sel := m.info.Selections[n]
						if sel == nil || written[n.Sel] {
							break
						}
						t := sel.Recv()
						for _, i := range sel.Index()[:len(sel.Index())-1] {
							if p, ok := t.(*types.Pointer); ok {
								t = p.Elem()
							}
							st, ok := t.Underlying().(*types.Struct)
							if !ok {
								break
							}
							reads(st.Field(i), n.Pos())
							t = st.Field(i).Type()
						}
					case *ast.FuncDecl:
						if !m.inTest(n.Pos()) {
							returns(m.info.Defs[n.Name].Type().(*types.Signature))
						}
					case *ast.FuncLit:
						if !m.inTest(n.Pos()) {
							returns(m.info.Types[n].Type.(*types.Signature))
						}
					}
					return true
				})
			}
		}
	}
	for id, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			reads(v, id.Pos())
		}
	}

	covered := make(map[string]bool) // allowlist entries that cover an unread field
	for f, tn := range owner {
		r := read[f]
		if r != nil && (r.prod || r.test && !wire[tn] && (counter[f] || results[tn])) {
			continue
		}
		field := name(tn) + "." + f.Name()
		if _, ok := allow[name(tn)]; ok {
			covered[name(tn)] = true
		} else if _, ok := allow[field]; ok {
			covered[field] = true
		} else {
			unread = append(unread, field)
		}
	}
	for entry := range allow {
		if !covered[entry] {
			stale = append(stale, entry)
		}
	}
	sort.Strings(unread)
	sort.Strings(stale)
	return unread, stale
}

// source is one Go file: its slash-separated path from the module root and
// its text.
type source struct{ path, text string }

// The module's files, type-checked once per test binary: every guard reads
// them, and checking the standard library from source takes seconds.
var (
	moduleOnce sync.Once
	theModule  *module
	moduleErr  error
)

// checkedModule returns the module's files, type-checked.
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

// moduleSources reads every Go file of the module, outside testdata and
// hidden directories.
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
	return files, err
}

// module is the module's files, type-checked together: each package with
// its in-package tests, and each external test package on its own.
type module struct {
	fset       *token.FileSet
	pkgFiles   map[string][]*ast.File // import path -> its non-test files
	testFiles  map[string][]*ast.File // import path -> its _test.go files; <path>_test for an external test package
	paths      []string               // the import paths, sorted
	info       *types.Info
	std        types.Importer
	stdImports map[string]bool // standard packages the non-test files import
}

// inTest reports whether pos lies in a _test.go file.
func (m *module) inTest(pos token.Pos) bool {
	return strings.HasSuffix(m.fset.File(pos).Name(), "_test.go")
}

// modulePath is the module's path in go.mod.
const modulePath = "cicero"

// checkModule parses and type-checks files, the standard library from
// source.
func checkModule(files []source) (*module, error) {
	fset := token.NewFileSet()
	m := &module{
		fset:       fset,
		pkgFiles:   make(map[string][]*ast.File),
		testFiles:  make(map[string][]*ast.File),
		stdImports: make(map[string]bool),
		info: &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		std: importer.ForCompiler(fset, "source", nil),
	}
	for _, src := range files {
		f, err := parser.ParseFile(fset, src.path, src.text, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p := modulePath
		if dir := path.Dir(src.path); dir != "." {
			p += "/" + dir
		}
		if strings.HasSuffix(src.path, "_test.go") {
			if strings.HasSuffix(f.Name.Name, "_test") {
				p += "_test"
			}
			m.testFiles[p] = append(m.testFiles[p], f)
			continue
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
		pf := append(append([]*ast.File(nil), m.pkgFiles[p]...), m.testFiles[p]...)
		if len(pf) == 0 {
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
	for p := range m.testFiles {
		if m.pkgFiles[p] == nil {
			m.paths = append(m.paths, p)
		}
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
		if s, ok := own[obj]; (ok && within(id.Pos(), s)) || receivers[id] || within(id.Pos(), assertions...) || m.inTest(id.Pos()) {
			continue
		}
		// A use of an instantiated generic method or field reaches its
		// declaration.
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		reached[obj] = true
	}

	// A method an interface's reached method dispatches to is reached too.
	var ifaces []*types.Interface
	var named []*types.Named
	for x, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && !m.inTest(x.Pos()) {
			ifaces = append(ifaces, it)
		}
	}
	for id, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !m.inTest(id.Pos()) {
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
