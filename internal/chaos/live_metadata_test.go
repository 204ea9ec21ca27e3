package chaos

import "testing"

// TestLiveChaosMetadataInProc runs the metadata campaign on the
// in-process backend: a policy publication, replay/splice/forged-key
// attack waves from the soon-to-be-retired member, and a live
// membership removal whose reshare rotates the root — converging with
// zero violations while the stores visibly classify and reject the
// attacks.
func TestLiveChaosMetadataInProc(t *testing.T) {
	res := RunSeed(liveTestProfile(MetadataProfile(), "inproc", 6), 5)
	requireClean(t, res)
	if res.MetaPublished < 2 {
		t.Errorf("publications = %d, want >= 2 (initial + post-change)", res.MetaPublished)
	}
	if res.MetaRootVersion < 2 {
		t.Errorf("root version = %d, want >= 2 (genesis + post-change rotation)", res.MetaRootVersion)
	}
	if res.MetaReshares == 0 {
		t.Error("the live membership change never completed a reshare")
	}
	if res.MetaRejects["meta-rollback"] == 0 {
		t.Errorf("no store ever classified a rollback replay (rejects=%v)", res.MetaRejects)
	}
	if res.MetaRejects["meta-wrong-role"] == 0 {
		t.Errorf("no store ever rejected the forged role key (rejects=%v)", res.MetaRejects)
	}
	t.Logf("flows=%d/%d published=%d reshares=%d rootv=%d rejects=%v",
		res.FlowsDone, res.FlowsTotal, res.MetaPublished, res.MetaReshares, res.MetaRootVersion, res.MetaRejects)
}

// TestLiveChaosMetadataCanaryInProc plants the store-verification bypass
// and withholds timestamp refreshes: the post-drain replay must regress
// the bypassed stores (rollback), the forged-key document must adopt
// (forgery), and the frozen stores must be caught claiming freshness on
// expired proofs (stale-policy).
func TestLiveChaosMetadataCanaryInProc(t *testing.T) {
	p := liveTestProfile(MetadataProfile(), "inproc", 4)
	p.Canary = true
	res := RunSeed(p, 6)
	if res.Err != "" {
		t.Fatalf("live run error: %s", res.Err)
	}
	caught := make(map[string]bool)
	for _, v := range res.Violations {
		caught[v.Invariant] = true
	}
	for _, inv := range []string{InvMetaRollback, InvMetaForged, InvStalePolicy} {
		if !caught[inv] {
			t.Errorf("bypassed stores were never caught by %s (caught=%v)", inv, caught)
		}
	}
}
