package core

import (
	"fmt"
	"slices"

	"cicero/internal/controlplane"
	"cicero/internal/dataplane"
	"cicero/internal/fabric"
	"cicero/internal/tcrypto/pki"
)

// The one restart rule, on every backend: boot epoch 0 is a node's first
// boot; a later epoch is a replacement for an instance that died with all
// its volatile state. A replacement controller is born recovering — its
// amnesiac broadcast replica mute until f+1 peers vouch a history — and
// starts the transfer; a replacement switch numbers its events under the
// new epoch (controllers dedup on event ids), is bootstrapped, and asks
// for its table and the metadata back. What a node does first it does in
// its serial context, at every epoch: a replacement's handler is live on a
// fabric that already carries traffic for it, and a first boot takes the
// same path. The fabric models the machine: revive a crashed node there
// (Restart) before booting on it.
//
// A node's role does not depend on the epoch: the member in slot 0 is the
// bootstrap controller (§4.3) at every boot. The role belongs to the
// identity, as the share does; if a crash retired it, one kill -9 would
// end every later admission, since only the bootstrap controller proposes
// one and hands the joiner its state.

// BootController builds controller id of domain dom at the given boot
// epoch. An id outside the membership boots a joiner: no share, nothing to
// sign with, until the membership protocol hands it both.
func BootController(cfg Config, fab fabric.Fabric, p *Provisioning, dom int, id pki.Identity, epoch uint32) (*controlplane.Controller, error) {
	d := p.Domains[dom]
	slot := slices.Index(d.Members, id)
	ctlCfg := controlplane.Config{
		ID:                id,
		Domain:            d.Index,
		Members:           d.Members,
		Net:               fab,
		Cost:              cfg.Cost,
		Keys:              p.Keys[id],
		Directory:         p.Directory,
		Protocol:          cfg.Protocol,
		Aggregation:       cfg.Aggregation,
		App:               cfg.newApp(),
		Sched:             cfg.Scheduler,
		PeerDomains:       p.PeerDomains(),
		Switches:          d.Switches,
		CryptoReal:        cfg.CryptoReal,
		Bootstrap:         slot == 0,
		ViewChangeTimeout: cfg.ViewChangeTimeout,
		FailureDetector:   cfg.FailureDetector,
		BatchSize:         cfg.BatchSize,
		BatchDelay:        cfg.BatchDelay,
		CrashRecovery:     epoch > 0,
	}
	if len(p.Domains) > 1 {
		ctlCfg.DomainOf = func(sw string) int { return p.domainOfSwitch[sw] }
	}
	if cfg.Protocol == controlplane.ProtoCicero {
		ctlCfg.Scheme = p.Scheme
		ctlCfg.GroupKey = d.GroupKey
		if slot >= 0 {
			ctlCfg.Share = d.Shares[slot]
		}
		if cfg.Metadata {
			ctlCfg.Metadata = &controlplane.MetadataConfig{
				Genesis:         d.MetaGenesis,
				TTL:             cfg.MetadataTTL,
				TimestampTTL:    cfg.MetadataTimestampTTL,
				RefreshInterval: cfg.MetadataRefresh,
				RefreshHorizon:  cfg.MetadataRefreshHorizon,
			}
		}
	}
	ctl, err := controlplane.New(ctlCfg)
	if err != nil {
		return nil, fmt.Errorf("core: controller %s: %w", id, err)
	}
	if epoch > 0 {
		fab.Invoke(fabric.NodeID(id), ctl.StartRecovery)
	}
	return ctl, nil
}

// BootSwitch builds switch id at the given boot epoch.
func BootSwitch(cfg Config, fab fabric.Fabric, p *Provisioning, id string, epoch uint32) (*dataplane.Switch, error) {
	d := p.Domains[p.domainOfSwitch[id]]
	mode := dataplane.ModeUnsigned
	if cfg.Protocol == controlplane.ProtoCicero {
		mode = dataplane.ModeThreshold
		if cfg.Aggregation == controlplane.AggController {
			mode = dataplane.ModeAggregated
		}
	}
	swCfg := dataplane.Config{
		ID:             id,
		Net:            fab,
		Cost:           cfg.Cost,
		Mode:           mode,
		Keys:           p.Keys[pki.Identity(id)],
		Directory:      p.Directory,
		Controllers:    d.Members,
		CryptoReal:     cfg.CryptoReal,
		ApplyHook:      cfg.SwitchApplyHook,
		BatchApplyHook: cfg.SwitchBatchHook,
		BootEpoch:      epoch,
	}
	if cfg.Protocol == controlplane.ProtoCicero {
		swCfg.Scheme = p.Scheme
		swCfg.GroupKey = d.GroupKey
		swCfg.Quorum = d.Quorum
		if cfg.Metadata {
			swCfg.Metadata = &dataplane.MetadataConfig{Genesis: d.MetaGenesis}
		}
	}
	sw, err := dataplane.New(swCfg)
	if err != nil {
		return nil, fmt.Errorf("core: switch %s: %w", id, err)
	}
	fab.Invoke(fabric.NodeID(id), func() {
		sw.Bootstrap(d.Members, d.Aggregator, d.Quorum)
		if epoch > 0 {
			sw.RequestResync()
			sw.RequestMeta() // no-op without the metadata plane
		}
	})
	return sw, nil
}

// RestartController replaces a crashed controller with a fresh instance at
// its next boot epoch. No pre-crash volatile state survives: the routing
// app is rebuilt too.
func (n *Network) RestartController(dom, slot int) (*controlplane.Controller, error) {
	if dom < 0 || dom >= len(n.Domains) {
		return nil, fmt.Errorf("core: restart controller: domain %d out of range", dom)
	}
	d := n.Domains[dom]
	if slot < 0 || slot >= len(d.Controllers) {
		return nil, fmt.Errorf("core: restart controller: slot %d out of range in domain %d", slot, dom)
	}
	old := d.Controllers[slot]
	id := fabric.NodeID(old.ID())
	// Kill the old instance inside its serial context so any of its timers
	// that survived the crash find it stopped.
	n.Fab.Invoke(id, old.Stop)
	n.epoch[id]++
	ctl, err := BootController(n.Cfg, n.Fab, n.Provisioning, dom, old.ID(), n.epoch[id])
	if err != nil {
		return nil, err
	}
	d.Controllers[slot] = ctl
	return ctl, nil
}

// RestartSwitch replaces a crashed switch with a fresh instance (empty
// flow table) at its next boot epoch.
func (n *Network) RestartSwitch(id string) (*dataplane.Switch, error) {
	if n.Switches[id] == nil {
		return nil, fmt.Errorf("core: restart switch: no switch %s", id)
	}
	n.epoch[fabric.NodeID(id)]++
	sw, err := BootSwitch(n.Cfg, n.Fab, n.Provisioning, id, n.epoch[fabric.NodeID(id)])
	if err != nil {
		return nil, err
	}
	n.Switches[id] = sw
	return sw, nil
}

// Join enrolls and boots a controller that is not yet a member of domain
// dom; RequestAddController on the domain's bootstrap controller admits it.
func (n *Network) Join(dom int, id pki.Identity) (*controlplane.Controller, error) {
	if err := n.Enroll(id); err != nil {
		return nil, err
	}
	n.site[string(id)] = n.Domains[dom].Site
	return BootController(n.Cfg, n.Fab, n.Provisioning, dom, id, 0)
}
