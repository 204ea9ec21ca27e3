package distrib

import (
	"reflect"
	"testing"

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
