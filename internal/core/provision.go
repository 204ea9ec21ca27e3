package core

import (
	"crypto/rand"
	"fmt"
	"slices"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/dkg"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// Provisioning is the outcome of a deployment's one act of provisioning
// (§3.2, §4.3, §5): per domain the membership, switch list, quorum,
// threshold key, aggregator and optional root of trust; per node an
// identity key and a directory entry. It is what a node durably holds.
// Every node object is built from it by BootController or BootSwitch —
// at Build, after a crash, and in a node's own OS process, which gets its
// part of it as the signed bundle internal/distrib packs.
type Provisioning struct {
	Scheme    *bls.Scheme
	Directory *pki.Directory
	Domains   []*Domain
	// Keys holds the identity keys of the nodes this process may boot:
	// every node's after Provision, its own in a node process.
	Keys map[pki.Identity]*pki.KeyPair

	domainOfSwitch map[string]int
}

// ControllerName returns the canonical controller identity.
func ControllerName(domain, idx int) pki.Identity {
	return pki.Identity(fmt.Sprintf("dom%d/ctl/%d", domain, idx))
}

// Provision runs the act of provisioning for a defaulted config: it
// partitions the switches into domains, names each domain's members, runs
// one DKG per domain (no dealer ever knows the key), generates every
// node's identity key, and signs each domain's metadata genesis root,
// issued at now. It needs no fabric.
func Provision(cfg Config, now fabric.Time) (*Provisioning, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: Graph is required")
	}
	if cfg.Protocol == controlplane.ProtoCicero && cfg.ControllersPerDomain < 4 {
		return nil, fmt.Errorf("core: cicero requires >= 4 controllers per domain, got %d", cfg.ControllersPerDomain)
	}
	p := &Provisioning{
		Scheme:         bls.NewScheme(cfg.Params),
		Directory:      pki.NewDirectory(),
		Keys:           make(map[pki.Identity]*pki.KeyPair),
		domainOfSwitch: make(map[string]int),
	}
	for dom := 0; dom < cfg.NumDomains; dom++ {
		d := &Domain{Index: dom, Quorum: controlplane.CiceroQuorum(cfg.ControllersPerDomain)}
		for i := 1; i <= cfg.ControllersPerDomain; i++ {
			d.Members = append(d.Members, ControllerName(dom, i))
		}
		p.Domains = append(p.Domains, d)
	}
	for _, node := range cfg.Graph.Nodes() {
		if node.Kind == topology.KindHost {
			continue
		}
		dom := 0
		if cfg.DomainOf != nil {
			dom = cfg.DomainOf(node)
		}
		if dom < 0 || dom >= cfg.NumDomains {
			return nil, fmt.Errorf("core: DomainOf(%s) = %d out of range 0..%d", node.ID, dom, cfg.NumDomains-1)
		}
		p.Domains[dom].Switches = append(p.Domains[dom].Switches, node.ID)
		p.domainOfSwitch[node.ID] = dom
	}
	for _, d := range p.Domains {
		if len(d.Switches) > 0 {
			d.Site = d.Switches[0]
		}
		if cfg.Protocol == controlplane.ProtoCicero {
			gk, shares, err := dkg.Run(p.Scheme, rand.Reader, d.Quorum, len(d.Members))
			if err != nil {
				return nil, fmt.Errorf("core: domain %d DKG: %w", d.Index, err)
			}
			d.GroupKey, d.Shares = gk, shares
			if cfg.Aggregation == controlplane.AggController {
				d.Aggregator = d.Members[0]
			}
		}
		for _, id := range d.Members {
			if err := p.Enroll(id); err != nil {
				return nil, err
			}
		}
		if cfg.Metadata && cfg.Protocol == controlplane.ProtoCicero {
			// The genesis root delegates to every member's identity key.
			ctlKeys := make([]*pki.KeyPair, len(d.Members))
			for i, id := range d.Members {
				ctlKeys[i] = p.Keys[id]
			}
			ttl := cfg.MetadataTTL
			if ttl <= 0 {
				ttl = time.Hour // the controlplane MetadataConfig default
			}
			root := metarepo.GenesisRoot(d.Quorum, ctlKeys, int64(now), int64(ttl))
			env, err := metarepo.SignRootDirect(p.Scheme, d.GroupKey, d.Shares, root)
			if err != nil {
				return nil, fmt.Errorf("core: domain %d metadata genesis: %w", d.Index, err)
			}
			d.MetaGenesis = env
		}
		for _, sw := range d.Switches {
			if err := p.Enroll(pki.Identity(sw)); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// Enroll generates id's identity key and enters it in the directory. That
// is all the provisioning a joining controller gets (§4.3 step i): its
// share arrives through resharing once the bootstrap controller admits it.
func (p *Provisioning) Enroll(id pki.Identity) error {
	keys, err := pki.NewKeyPair(rand.Reader, id)
	if err != nil {
		return fmt.Errorf("core: keygen %s: %w", id, err)
	}
	if err := p.Directory.Register(id, keys.Public); err != nil {
		return fmt.Errorf("core: enroll %s: %w", id, err)
	}
	p.Keys[id] = keys
	return nil
}

// PeerDomains maps every domain to its members. Each caller gets its own
// copy: a controller edits its view on membership notices.
func (p *Provisioning) PeerDomains() map[int][]pki.Identity {
	out := make(map[int][]pki.Identity, len(p.Domains))
	for _, d := range p.Domains {
		out[d.Index] = slices.Clone(d.Members)
	}
	return out
}
