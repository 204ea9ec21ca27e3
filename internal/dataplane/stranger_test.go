package dataplane

import (
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
)

// retiredFrames are well-formed frames of the seven southbound wire types
// (ids 48–53 and 55) the codec once carried: a bundle that opens, adds the
// rule h1->h2 and commits, then a barrier request and reply, a packet-in and
// a role request. No signature or share rides in any of them.
var retiredFrames = []string{
	"3002683107", // bundle-open
	"310268310702027331140268310268320202733209", // bundle-add
	"3202683107",                       // bundle-commit
	"3302683107",                       // barrier-request
	"3402683107",                       // barrier-reply
	"3502683107027331026831026832b817", // packet-in
	"370268310702",                     // role-request
}

// TestStrangerCannotWriteFlowTable: a node that holds no key sends a
// threshold-mode, real-crypto switch everything an unauthenticated sender
// can put on the wire. Frames with a retired id must not decode — what does
// decode is delivered, so a codec that still carried an install path would
// show up as an installed rule — and the messages that remain (a packet-out,
// an update with no share, an aggregate with a junk signature) must leave
// the table empty. The last check is on the source: apply is the only
// function that writes the table.
func TestStrangerCannotWriteFlowTable(t *testing.T) {
	h := newHarness(t, ModeThreshold, true)
	codec := protocol.NewWireCodec(nil)
	for _, hexFrame := range retiredFrames {
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := codec.Decode(frame)
		if err != nil {
			continue
		}
		t.Errorf("frame with retired id %d decodes to %T", frame[0], msg)
		h.sw.HandleMessage("stranger", msg)
	}
	id := openflow.MsgID{Origin: "stranger", Seq: 1}
	forged := []openflow.FlowMod{mod("h2")}
	h.sw.HandleMessage("stranger", openflow.PacketOut{ID: id, Switch: "sw1", Src: "h1", Dst: "h2", Payload: "attack"})
	h.sw.HandleMessage("stranger", protocol.MsgUpdate{UpdateID: id, Mods: forged, From: "stranger"})
	h.sw.HandleMessage("stranger", protocol.MsgAggUpdate{UpdateID: id, Mods: forged, Signature: []byte{1, 2, 3}})
	if _, err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.sw.Lookup("h1", "h2"); ok {
		t.Error("forged rule installed")
	}
	if rules := h.sw.Table().Rules(); len(rules) != 0 || h.sw.UpdatesApplied != 0 {
		t.Errorf("table holds %d rules after %d applies, want it empty: %v", len(rules), h.sw.UpdatesApplied, rules)
	}
	onlyApplyWritesTheFlowTable(t)
}

// onlyApplyWritesTheFlowTable parses the package's non-test sources and
// requires every s.table.Apply call to sit inside Switch.apply, the one
// function that records the verdict, tells the apply hook and acknowledges.
func onlyApplyWritesTheFlowTable(t *testing.T) {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isTableApply(call) {
					writes++
					if fn.Name.Name != "apply" {
						t.Errorf("%s: %s writes the flow table; only apply may", name, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if writes == 0 {
		t.Fatal("found no s.table.Apply call at all: the guard no longer matches the code")
	}
}

// isTableApply matches <expr>.table.Apply(...).
func isTableApply(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Apply" {
		return false
	}
	recv, ok := sel.X.(*ast.SelectorExpr)
	return ok && recv.Sel.Name == "table"
}
