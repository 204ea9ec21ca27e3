package distrib

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pairing"
)

// TestRebootedBootstrapNodeKeepsItsRole boots the slot-0 controller's
// bundle at boot epoch 1, the way the supervisor restarts a killed node,
// and asks it to propose an admission. The bootstrap role (§4.3) belongs
// to the identity, so the reboot keeps it — see the restart rule in
// internal/core/boot.go.
//
// The file compiles on the tree that had the drift, to show it there: Plan
// is called with whichever description it takes, and the restart flag the
// node has since learnt to derive is set where the options still have it.
// There the reborn node answers "is not the bootstrap controller".
func TestRebootedBootstrapNodeKeepsItsRole(t *testing.T) {
	plan := reflect.ValueOf(Plan)
	desc := reflect.New(plan.Type().In(0)).Elem()
	desc.FieldByName("Graph").Set(reflect.ValueOf(SmokeGraph()))
	for _, size := range []string{"ControllersPerDomain", "Controllers"} {
		if f := desc.FieldByName(size); f.IsValid() {
			f.SetInt(4)
		}
	}
	planned := plan.Call([]reflect.Value{desc})
	if err, _ := planned[1].Interface().(error); err != nil {
		t.Fatal(err)
	}
	dep := planned[0].Interface().(*Deployment)

	fab, err := livenet.NewTCPNode(livenet.TCPOptions{Codec: protocol.NewWireCodec(pairing.Fast254())})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	bundle := dep.Bundles[string(dep.Members[0])]
	rt := &nodeRuntime{bundle: &bundle, fab: fab}
	rt.opts.BootEpoch = 1
	if f := reflect.ValueOf(&rt.opts).Elem().FieldByName("CrashRecovery"); f.IsValid() {
		f.SetBool(true)
	}
	if err := rt.build(); err != nil {
		t.Fatal(err)
	}
	defer rt.stop()
	var refused error
	var recovering bool
	fab.InvokeWait(fabric.NodeID(bundle.ID), func() {
		refused, recovering = rt.ctl.RequestAddController("dom0/ctl/5"), rt.ctl.Recovering()
	})
	if refused != nil || !recovering {
		t.Fatalf("slot-0 controller rebooted at epoch 1: recovering=%v, RequestAddController: %v", recovering, refused)
	}
}

// TestRestartCountsBootEpochs restarts one switch twice through the
// supervisor: the replacements boot, hello and trace at epochs 1 and 2,
// an epoch the supervisor keeps itself rather than reading off the trace
// files it has named.
func TestRestartCountsBootEpochs(t *testing.T) {
	requireNodeBin(t)
	if testing.Short() {
		t.Skip("boots node processes")
	}
	dep, err := Plan(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(dep, nodeBin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	id := dep.Switches[0]
	if err := sup.Start(id); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitReady([]string{id}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint32{1, 2} {
		if err := sup.Kill(id); err != nil {
			t.Fatal(err)
		}
		if err := sup.Restart(id); err != nil {
			t.Fatal(err)
		}
		if err := sup.WaitReady([]string{id}, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		sup.mu.Lock()
		helloed := sup.ready[id] - 1
		sup.mu.Unlock()
		if helloed != want {
			t.Fatalf("restart %d: node helloed boot epoch %d", want, helloed)
		}
	}
	sup.Close()
	paths := sup.TracePaths()
	if len(paths) != 4 {
		t.Fatalf("trace files %v, want the driver's and three boots'", paths)
	}
	for epoch, path := range paths[1:] {
		lines, err := ReadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		proc, detail := fmt.Sprintf("%s#%d", id, epoch), fmt.Sprintf("switch epoch=%d", epoch)
		booted := slices.ContainsFunc(lines, func(l Line) bool {
			return l.Proc == proc && l.Kind == "boot" && l.Detail == detail
		})
		if !booted {
			t.Fatalf("%s: no boot record of %s at epoch %d in %+v", path, proc, epoch, lines)
		}
	}
}
