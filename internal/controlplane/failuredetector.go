package controlplane

import (
	"cicero/internal/fabric"
	"cicero/internal/protocol"
)

// This file implements the heartbeat failure detector of §5.1: members
// exchange periodic heartbeats, and a member silent past the timeout is
// suspected and proposed for removal through the consensus protocol. The
// paper notes detection cannot be perfectly accurate; a premature removal
// only costs liveness, and removed controllers can be re-added.

// scheduleHeartbeat arms the periodic heartbeat/check loop. The loop
// stops after the configured horizon so simulations quiesce.
func (c *Controller) scheduleHeartbeat() {
	fd := c.cfg.FailureDetector
	if fd == nil || fd.Interval <= 0 {
		return
	}
	c.cfg.Net.After(fabric.NodeID(c.cfg.ID), fd.Interval, func() {
		if c.stopped {
			return
		}
		now := c.cfg.Net.Now()
		if fd.Horizon > 0 && now > fd.Horizon {
			return
		}
		for _, m := range c.members {
			if m == c.cfg.ID {
				continue
			}
			c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(m), protocol.MsgHeartbeat{}, 64)
		}
		c.checkSuspects(now)
		c.scheduleHeartbeat()
	})
}

// checkSuspects proposes removal of members silent past the timeout.
func (c *Controller) checkSuspects(now fabric.Time) {
	fd := c.cfg.FailureDetector
	for _, m := range c.members {
		if m == c.cfg.ID {
			continue
		}
		last, seen := c.lastSeen[m]
		if !seen {
			// Grace period: treat the first observation point as "alive
			// now" so freshly added members are not instantly suspected.
			c.lastSeen[m] = now
			continue
		}
		if now-last > fd.Timeout && !c.suspected[m] {
			c.suspected[m] = true
			// Propose removal; agreement and resharing do the rest.
			_ = c.RequestRemoveController(m)
		}
	}
}
