package experiments

// The tuf experiment exercises the threshold-signed policy metadata
// subsystem (internal/metarepo) end to end: a seeded chaos campaign in
// which a Byzantine attacker replays stale documents, splices snapshots,
// forges role keys, and reuses retired shares against hardened stores; a
// canary leg proving the invariant plane catches stores whose
// verification has been disabled; and a wall-clock microbenchmark of the
// store-side verification cost — most importantly the per-refresh cost a
// switch pays every time the leader re-mints the freshness proof.

import (
	"crypto/rand"
	"fmt"
	"sort"
	"time"

	"cicero/internal/chaos"
	"cicero/internal/metarepo"
	"cicero/internal/metrics"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
)

// Tuf runs the metadata campaign and verification-cost benchmark.
func Tuf(o Options) (*Result, error) {
	o = o.Defaulted()
	seeds, canarySeeds := 10, 5
	if o.Quick {
		seeds, canarySeeds = 4, 3
	}

	// Leg 1: hardened stores under metadata attack. Zero violations is
	// the expected result; every attack lands as a classified rejection.
	campaign := chaos.Campaign{Profile: chaos.MetadataProfile(), Seeds: chaos.Seeds(o.Seed, seeds)}.Run()
	var published, refreshes, reshares, stale uint64
	var rootVersion uint64
	rejects := map[string]uint64{}
	for _, sr := range campaign.Results {
		published += sr.MetaPublished
		refreshes += sr.MetaRefreshes
		reshares += sr.MetaReshares
		stale += sr.MetaStaleShares
		if sr.MetaRootVersion > rootVersion {
			rootVersion = sr.MetaRootVersion
		}
		for reason, n := range sr.MetaRejects {
			rejects[reason] += n
		}
	}
	campTbl := metrics.NewTable("tuf metadata chaos campaign (rollback, freeze, splice, forged-key, retired-share attacks)",
		"seeds", "violations", "published", "refreshes", "reshares", "max root ver", "stale shares")
	campTbl.AddRow(seeds, campaign.Violations, published, refreshes, reshares, rootVersion, stale)

	reasons := make([]string, 0, len(rejects))
	for reason := range rejects {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	rejTbl := metrics.NewTable("store rejections by classification", "reason", "count")
	for _, reason := range reasons {
		rejTbl.AddRow(reason, rejects[reason])
	}

	// Leg 2: the bypass canary. The same attacks against stores that
	// skip verification must be caught by the invariant plane — this is
	// the proof the campaign's zero above is load-bearing.
	canaryProfile := chaos.MetadataProfile()
	canaryProfile.Canary = true
	canary := chaos.Campaign{Profile: canaryProfile, Seeds: chaos.Seeds(o.Seed, canarySeeds)}.Run()
	caught := map[string]int{}
	for _, sr := range canary.Results {
		perSeed := map[string]bool{}
		for _, v := range sr.Violations {
			perSeed[v.Invariant] = true
		}
		for inv := range perSeed {
			caught[inv]++
		}
	}
	canTbl := metrics.NewTable("verification-bypass canary (seeds caught / seeds run)",
		"invariant", "caught")
	canaryInvs := []string{chaos.InvMetaRollback, chaos.InvMetaForged, chaos.InvStalePolicy}
	for _, inv := range canaryInvs {
		canTbl.AddRow(inv, fmt.Sprintf("%d/%d", caught[inv], canarySeeds))
	}

	costTbl, err := tufVerifyCost(o)
	if err != nil {
		return nil, err
	}

	out := &Result{
		Name:   "tuf",
		Tables: []*metrics.Table{campTbl, rejTbl, canTbl, costTbl},
		Notes: []string{
			note("campaign: %s", campaign.Summary()),
			note("canary: %s", canary.Summary()),
			"verification costs are host wall-clock (like -crypto-bench), not virtual time",
		},
	}
	if campaign.Violations == 0 {
		out.Notes = append(out.Notes, "zero invariant violations with verification on (expected)")
	} else {
		out.fail("%d INVARIANT VIOLATIONS with verification on — failing seeds %v", campaign.Violations, campaign.FailingSeeds)
	}
	for _, inv := range canaryInvs {
		if caught[inv] == 0 {
			out.fail("CANARY MISSED: %s fired on 0/%d seeds with verification bypassed", inv, canarySeeds)
		}
	}
	return out, nil
}

// tufVerifyCost measures the real store-side verification cost: adopting
// a full signed set from the root of trust, verifying one timestamp
// refresh (the steady-state per-refresh cost), verifying a root rotation,
// and rejecting a replayed stale proof.
func tufVerifyCost(o Options) (*metrics.Table, error) {
	scheme := bls.NewScheme(pairing.Fast254())
	const n, quorum = 4, 2
	gk, shares, err := scheme.Deal(rand.Reader, quorum, n)
	if err != nil {
		return nil, fmt.Errorf("tuf: deal: %w", err)
	}
	signers := make([]*pki.KeyPair, n)
	keys := make([]metarepo.RoleKey, n)
	for i := range signers {
		kp, err := pki.NewKeyPair(rand.Reader, pki.Identity(fmt.Sprintf("bench/ctl/%d", i)))
		if err != nil {
			return nil, fmt.Errorf("tuf: keypair: %w", err)
		}
		signers[i] = kp
		keys[i] = metarepo.RoleKey{KeyID: string(kp.ID), Pub: append([]byte(nil), kp.Public...)}
	}
	const issued, ttl = int64(1), int64(time.Hour)
	nowFn := func() int64 { return issued }

	rootEnv, err := metarepo.SignRootDirect(scheme, gk, shares[:quorum], metarepo.GenesisRoot(quorum, signers, issued, ttl))
	if err != nil {
		return nil, fmt.Errorf("tuf: sign root: %w", err)
	}
	tg, sn, ts := metarepo.BuildSet(metarepo.Policy{
		Phase:  1,
		Quorum: quorum,
	}, 1, issued, ttl, ttl)
	set := metarepo.SignSet(tg, sn, ts, signers[:quorum])

	iters := 400
	rotations := 48
	if o.Quick {
		iters, rotations = 60, 12
	}

	tbl := metrics.NewTable("metadata verification cost (host wall-clock)", "op", "ns/op", "iters")
	timed := func(name string, count int, fn func(i int)) {
		start := time.Now()
		for i := 0; i < count; i++ {
			fn(i)
		}
		tbl.AddRow(name, time.Since(start).Nanoseconds()/int64(count), count)
	}

	// Full-set adoption from only the root of trust: one BLS pairing
	// check plus three delegated-role verifications — the cost a switch
	// pays on (re)provisioning.
	timed("verify/full-set", iters, func(int) {
		st := metarepo.NewStore(scheme, gk.PK, nowFn)
		if err := st.Apply(rootEnv); err != nil {
			panic(err)
		}
		if err := st.ApplySet(set); err != nil {
			panic(err)
		}
	})

	// Steady-state refresh: one Ed25519 verification plus the snapshot
	// binding check per re-minted freshness proof. Envelopes are built
	// outside the timer so only store-side verification is measured.
	st := metarepo.NewStore(scheme, gk.PK, nowFn)
	if err := st.Apply(rootEnv); err != nil {
		return nil, fmt.Errorf("tuf: adopt root: %w", err)
	}
	if err := st.ApplySet(set); err != nil {
		return nil, fmt.Errorf("tuf: adopt set: %w", err)
	}
	refreshes := make([]protocol.MetaEnvelope, iters)
	cur := ts
	for i := range refreshes {
		cur = metarepo.RefreshTimestamp(cur, issued, ttl)
		signed := metarepo.Encode(cur)
		refreshes[i] = protocol.MetaEnvelope{
			Role:   protocol.MetaRoleTimestamp,
			Signed: signed,
			Sigs:   []protocol.MetaSig{metarepo.SignRole(signers[0], protocol.MetaRoleTimestamp, signed)},
		}
	}
	timed("verify/refresh", iters, func(i int) {
		if err := st.Apply(refreshes[i]); err != nil {
			panic(err)
		}
	})

	// Root rotation: threshold group signature verified against the
	// previously trusted root's group key.
	roots := make([]protocol.MetaEnvelope, rotations)
	for i := range roots {
		env, err := metarepo.SignRootDirect(scheme, gk, shares[:quorum],
			metarepo.RootAt(uint64(i+2), quorum, keys, issued, ttl))
		if err != nil {
			return nil, fmt.Errorf("tuf: sign rotation: %w", err)
		}
		roots[i] = env
	}
	timed("verify/root-rotation", rotations, func(i int) {
		if err := st.Apply(roots[i]); err != nil {
			panic(err)
		}
	})

	// Rollback rejection: the fast path every replayed document hits —
	// version comparison before any signature work.
	stale := refreshes[0]
	timed("reject/rollback", iters, func(int) {
		if st.Apply(stale) == nil {
			panic("tuf: stale proof adopted")
		}
	})
	return tbl, nil
}
