package core

import (
	"slices"
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/topology"
)

// TestOneDriverOnEveryBackend drives two updates through a deployment on
// the simulator and on a live fabric with the same lines — On raises the
// table miss, Settle waits, Tables and Ledgers read back — and both
// converge to the same flow tables and the same ledger content. An awaited
// event that cannot happen is an error on both, not a hang.
func TestOneDriverOnEveryBackend(t *testing.T) {
	pairs := [][2]string{
		{topology.HostName(0, 0, 0, 0), topology.HostName(0, 0, 2, 0)},
		{topology.HostName(0, 0, 1, 0), topology.HostName(0, 0, 3, 1)},
	}
	drive := func(n *Network) (tables string, content [][32]byte) {
		t.Helper()
		for _, p := range pairs {
			ingress := n.Switches[n.Graph.SwitchesOnPath(n.Graph.ShortestPath(p[0], p[1]))[0]]
			installed := make(chan struct{})
			if err := n.On(fabric.NodeID(ingress.ID()), func() {
				ingress.Subscribe(p[0], p[1], func(fabric.Time) { close(installed) })
				ingress.PacketArrival(p[0], p[1])
			}); err != nil {
				t.Fatal(err)
			}
			if err := n.Settle(30*time.Second, installed); err != nil {
				t.Fatal(err)
			}
		}
		copies, err := n.Tables()
		if err != nil {
			t.Fatal(err)
		}
		tables = openflow.TablesDigest(copies)
		// The copies are the caller's: writing one does not reach a switch.
		for _, table := range copies {
			table.Add(openflow.Rule{Priority: 99, Match: openflow.Match{Src: "x", Dst: "y"}})
		}
		if again, err := n.Tables(); err != nil || openflow.TablesDigest(again) != tables {
			t.Errorf("a write to a copy from Tables reached the switches (err %v)", err)
		}
		ledgers, err := n.Ledgers(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, records := range ledgers {
			content = append(content, audit.ContentDigest(records))
		}
		if err := n.Settle(50*time.Millisecond, make(chan struct{})); err == nil {
			t.Error("Settle returned without error though what it awaited never happened")
		}
		return tables, content
	}
	cfg := Config{Graph: smallPod(t), PairRules: true, ViewChangeTimeout: 5 * time.Second}
	simTables, simContent := drive(buildNet(t, cfg))
	live, _ := buildLive(t, cfg)
	liveTables, liveContent := drive(live)
	if len(simContent) != 4 || simTables != liveTables || !slices.Equal(simContent, liveContent) {
		t.Errorf("simnet converged to tables %.12s, ledgers %x; inproc to tables %.12s, ledgers %x",
			simTables, simContent, liveTables, liveContent)
	}
}
