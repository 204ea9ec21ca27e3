package chaos

import "testing"

// TestMetadataCampaignNoViolations runs the metadata profile across
// seeds: the Byzantine metadata attacker (rollback replays, withheld
// timestamps, spliced snapshots, forged role keys, retired-share
// signatures) must never produce a violation, and the defenses must
// visibly engage — stores classify and reject the attacks, the root
// collector refuses the retired BLS share, and the mid-run membership
// change completes with a rotated root on every seed, its config push
// adopted by every switch's metadata gate.
func TestMetadataCampaignNoViolations(t *testing.T) {
	for _, seed := range Seeds(1, 8) {
		res := RunSeed(fastProfile(MetadataProfile()), seed)
		if res.Err != "" {
			t.Fatalf("seed %d: run error: %s", seed, res.Err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: unexpected violations: %v", seed, res.Violations)
		}
		if res.MetaPublished < 2 {
			t.Errorf("seed %d: %d publications completed, want >= 2 (initial + post-change)", seed, res.MetaPublished)
		}
		if res.MetaRefreshes == 0 {
			t.Errorf("seed %d: timestamp was never refreshed", seed)
		}
		if res.MetaRootVersion < 3 {
			t.Errorf("seed %d: root version %d, want >= 3 (genesis + post-change + mid-run rotation)", seed, res.MetaRootVersion)
		}
		if res.MetaStaleShares == 0 {
			t.Errorf("seed %d: the retired-share signature was never rejected by the root collector", seed)
		}
		if res.MetaRejects["meta-rollback"] == 0 {
			t.Errorf("seed %d: no store ever classified a rollback replay (rejects=%v)", seed, res.MetaRejects)
		}
		if res.MetaConfigRejects != 0 {
			t.Errorf("seed %d: switches' metadata gate refused %d honest config pushes", seed, res.MetaConfigRejects)
		}
		if res.MetaRejects["meta-wrong-role"] == 0 {
			t.Errorf("seed %d: no store ever rejected the forged role key (rejects=%v)", seed, res.MetaRejects)
		}
		if res.Injected["meta-attack-wave"] == 0 || res.Injected["meta-remove"] == 0 {
			t.Errorf("seed %d: campaign injected nothing (injected=%v)", seed, res.Injected)
		}
	}
}

// TestMetadataCanaryCaught plants the verification bypass on every
// switch store and requires each metadata invariant — rollback, forgery
// (spliced/forged documents adopt), and stale-policy (the freeze: a
// bypassed store claims freshness on an expired proof) — to catch it on
// every seed.
func TestMetadataCanaryCaught(t *testing.T) {
	p := fastProfile(MetadataProfile())
	p.Canary = true
	for _, seed := range Seeds(1, 5) {
		res := RunSeed(p, seed)
		if res.Err != "" {
			t.Fatalf("seed %d: run error: %s", seed, res.Err)
		}
		caught := make(map[string]bool)
		for _, v := range res.Violations {
			caught[v.Invariant] = true
			if len(v.Trace) == 0 {
				t.Errorf("seed %d: violation without a related trace: %s", seed, v)
			}
		}
		for _, inv := range []string{InvMetaRollback, InvMetaForged, InvStalePolicy} {
			if !caught[inv] {
				t.Errorf("seed %d: bypassed stores were never caught by %s (caught=%v)", seed, inv, caught)
			}
		}
	}
}

// TestMetadataDeterministic pins the campaign to its replay contract:
// the same seed reproduces the same trace bit for bit, and different
// seeds explore different schedules.
func TestMetadataDeterministic(t *testing.T) {
	p := fastProfile(MetadataProfile())
	a := RunSeed(p, 11)
	b := RunSeed(p, 11)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("run errors: %q %q", a.Err, b.Err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed, different trace hash:\n  %s\n  %s", a.TraceHash, b.TraceHash)
	}
	if c := RunSeed(p, 12); c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical traces")
	}
}
