package protocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/tcrypto/pki"
)

// TestEveryWireTypeHasASender keeps the vocabulary from drifting ahead of
// the protocol: every type registered in NewWireCodec must be built, as a
// composite literal, somewhere in the module's non-test code outside this
// package. A registered type nothing builds is a frame every receiver
// decodes and no sender needs; delete it, or land its sender with it. The
// three payload kinds are sent when their Encode has a non-test caller; each
// is built where it is encoded (a switch's Event and Ack, a controller's
// BroadcastItem), so they are held to the same rule.
func TestEveryWireTypeHasASender(t *testing.T) {
	const pkgDir = "internal/protocol"
	module := strings.TrimSuffix(reflect.TypeOf(MsgEvent{}).PkgPath(), "/"+pkgDir)
	built := make(map[string]bool) // "import/path.Type"
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, file)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == pkgDir || d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			return err
		}
		own := path.Join(module, path.Dir(rel))
		imports := make(map[string]string) // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			switch typ := lit.Type.(type) {
			case *ast.Ident:
				built[own+"."+typ.Name] = true
			case *ast.SelectorExpr:
				if pkg, ok := typ.X.(*ast.Ident); ok {
					built[imports[pkg.Name]+"."+typ.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	registered := make(map[reflect.Type]string)
	for _, e := range NewWireCodec(nil).byType {
		registered[e.typ] = e.name
	}
	for _, payload := range payloadKinds {
		registered[reflect.TypeOf(payload)] = "payload"
	}
	var unsent []string
	for typ, name := range registered {
		if !built[typ.PkgPath()+"."+typ.Name()] {
			unsent = append(unsent, name+" ("+typ.String()+")")
		}
	}
	sort.Strings(unsent)
	if len(unsent) > 0 {
		t.Errorf("registered wire types that no non-test code outside %s builds: %v", pkgDir, unsent)
	}
}

// payloadKinds are the three signed payloads, named by type and not read
// from their registry so that this file compiles on a tree where they were
// not registered yet.
var payloadKinds = []any{Event{}, Ack{}, BroadcastItem{}}

// TestNoWireTypeNamesItsSender keeps the sender out of the message body: a
// receiver knows who sent a frame from the fabric (or from an envelope's
// tag), and a field that repeats it is a field some handler will one day
// believe. It walks every registered type, the inner bft messages included,
// and fails on an identity-typed field with a sender's name; in the three
// signed payload kinds, whose senders are switches and whose ids are plain
// strings, a string field counts too, and so does the name Switch. The
// exceptions are written out, and each must still exist.
func TestNoWireTypeNamesItsSender(t *testing.T) {
	allowed := map[string]bool{
		"pki.Envelope.From":            false, // the link tag opens under it
		"protocol.MsgBatchUpdate.From": false, // authenticated by ReleaseSig
		"protocol.MsgUpdate.From":      false, // read by no decision; bench/ builds the literal
		"openflow.MsgID.Origin":        false, // an event's id, not its sender: handleEventMsg binds it to the sealer by prefix
	}
	senderNames := map[string]bool{"From": true, "Origin": true, "Sender": true, "Replica": true}
	identityTypes := map[reflect.Type]bool{
		reflect.TypeOf(pki.Identity("")):  true,
		reflect.TypeOf(fabric.NodeID("")): true,
		reflect.TypeOf(bft.ReplicaID(0)):  true,
	}
	var found []string
	var seen map[reflect.Type]bool
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem())
		case reflect.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if name := typ.String() + "." + f.Name; senderNames[f.Name] && identityTypes[f.Type] {
					if _, ok := allowed[name]; ok {
						allowed[name] = true
					} else {
						found = append(found, name)
					}
				}
				walk(f.Type)
			}
		}
	}
	seen = make(map[reflect.Type]bool)
	for typ := range NewWireCodec(nil).byType {
		walk(typ)
	}
	seen = make(map[reflect.Type]bool)
	senderNames["Switch"] = true
	identityTypes[reflect.TypeOf("")] = true
	for _, payload := range payloadKinds {
		walk(reflect.TypeOf(payload))
	}
	sort.Strings(found)
	if len(found) > 0 {
		t.Errorf("wire types that name their own sender: %v", found)
	}
	for name, hit := range allowed {
		if !hit {
			t.Errorf("%s is allowed to name a sender but no registered type has it: drop it from the list", name)
		}
	}
}

// TestPathPackagesDoNotImportJSON keeps the second serializer from coming
// back: what a node seals, orders, ledgers or frames is encoded by the wire
// codec's plans or is one of the pinned text strings, and none of the
// packages on that path imports the standard library's JSON package, tests
// included. (The import path is put together here so that a grep for it
// over these packages finds nothing, this file included.)
func TestPathPackagesDoNotImportJSON(t *testing.T) {
	banned := strconv.Quote(path.Join("encoding", "json"))
	for _, pkg := range []string{"protocol", "bft", "openflow", "dataplane", "scheduler", "audit", "fabric", "livenet", "controlplane", "chaos"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: %d files, err %v", pkg, len(files), err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == banned {
					t.Errorf("%s imports %s", file, banned)
				}
			}
		}
	}
}
