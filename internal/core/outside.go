package core

import (
	"fmt"
	"time"

	"cicero/internal/audit"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
)

// What a harness does to a deployment from outside it, once for every
// backend: reach into a node (On), wait until nothing moves (Settle), read
// the state back (Tables, Ledgers) — what the checkers consume.

// onTimeout bounds one visit to a node's serial context. Only a closed
// fabric or a wedged handler never answers, so the bound has nothing to
// trade against but a mailbox backed up under the race detector.
const onTimeout = 30 * time.Second

// On runs fn in node id's serial context and waits for it to return: how
// a driver reads or changes a node's state without racing its handlers.
// The simulator runs fn on the spot, a live backend on the node's mailbox.
func (n *Network) On(id fabric.NodeID, fn func()) error {
	return fabric.InvokeWait(n.Fab, id, fn, onTimeout)
}

// Settle returns once every awaited channel is closed and the deployment
// is at rest. On the simulator that is a run to the last event, after
// which an open channel is an error: nothing is left that could close it.
// On a live backend it waits for the channels, then until the fabric's
// books balance — every message sent was handed to a handler or dropped —
// and stay unchanged across a barrier through every node's serial context,
// so no handler is still running that could send another. Timers are not
// traffic: what the caller needs from one it awaits through a channel.
// The rule needs a run without a crash: a purged mailbox and a severed
// socket lose messages nobody counts, and the books never balance again.
func (n *Network) Settle(timeout time.Duration, awaited ...<-chan struct{}) error {
	if n.Sim != nil {
		if _, err := n.Sim.Run(); err != nil {
			return fmt.Errorf("core: settle: %w", err)
		}
		for _, done := range awaited {
			select {
			case <-done:
			default:
				return fmt.Errorf("core: settle: the simulator went idle before what was awaited happened")
			}
		}
		return nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for i, done := range awaited {
		select {
		case <-done:
		case <-deadline.C:
			return fmt.Errorf("core: settle: %d of %d awaited events had not happened within %v", len(awaited)-i, len(awaited), timeout)
		}
	}
	balanced := func(s fabric.Stats) bool { return s.Sent == s.Delivered+s.Dropped }
	for {
		before := n.Fab.Stats()
		if balanced(before) {
			if err := n.barrier(); err != nil {
				return err
			}
			if after := n.Fab.Stats(); after.Sent == before.Sent && balanced(after) {
				return nil
			}
		}
		select {
		case <-deadline.C:
			return fmt.Errorf("core: settle: fabric not at rest within %v (sent %d, delivered %d, dropped %d)",
				timeout, before.Sent, before.Delivered, before.Dropped)
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// barrier passes through the serial context of every node booted on the
// fabric: when it returns, every handler that was running has returned.
func (n *Network) barrier() error {
	for id := range n.Switches {
		if err := n.On(fabric.NodeID(id), func() {}); err != nil {
			return err
		}
	}
	for _, d := range n.Domains {
		for _, ctl := range d.Controllers {
			if err := n.On(fabric.NodeID(ctl.ID()), func() {}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tables returns a copy of every switch's flow table, each taken in the
// switch's serial context.
func (n *Network) Tables() (map[string]*openflow.FlowTable, error) {
	tables := make(map[string]*openflow.FlowTable, len(n.Switches))
	for id, sw := range n.Switches {
		var rules []openflow.Rule
		if err := n.On(fabric.NodeID(id), func() { rules = sw.Table().Rules() }); err != nil {
			return nil, err
		}
		tables[id] = openflow.NewFlowTable()
		for _, r := range rules {
			tables[id].Add(r)
		}
	}
	return tables, nil
}

// Ledgers returns a copy of the audit ledger of every controller of domain
// dom, in controller order, each taken in the controller's serial context.
func (n *Network) Ledgers(dom int) ([][]audit.Record, error) {
	ctls := n.Domains[dom].Controllers
	ledgers := make([][]audit.Record, len(ctls))
	for i, ctl := range ctls {
		if err := n.On(fabric.NodeID(ctl.ID()), func() { ledgers[i] = ctl.AuditRecords() }); err != nil {
			return nil, err
		}
	}
	return ledgers, nil
}
