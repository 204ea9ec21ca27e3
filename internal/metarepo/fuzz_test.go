package metarepo

import (
	"bytes"
	"slices"
	"testing"

	"cicero/internal/protocol"
)

// FuzzStoreApply feeds arbitrary bytes to the two readers of metadata from
// outside a node: the wire codec, whose MsgMeta and MsgMetaSet frames go to
// Store.Apply and Store.ApplySet, and DecodeGenesis, which reads a genesis
// file from disk and whose root goes to Store.Apply. Neither may panic, and
// a store, empty or holding the genesis root, adopts an envelope only when
// its signed bytes are one of the documents the seeds validly sign: two
// roots, two policy sets. A changed signature, role or document is refused,
// whatever the frame around it.
func FuzzStoreApply(f *testing.F) {
	fx := newFixture(f)
	rootEnv, set1 := fx.genesis(f)
	var keys []RoleKey
	for _, kp := range fx.keys[:3] {
		keys = append(keys, RoleKey{KeyID: string(kp.ID), Pub: append([]byte(nil), kp.Public...)})
	}
	root2Env, err := SignRootDirect(fx.scheme, fx.gk, fx.shares, RootAt(2, 2, keys, fx.now+1, ttl))
	if err != nil {
		f.Fatal(err)
	}
	tg2, sn2, ts2 := BuildSet(Policy{Phase: 1, Quorum: 2, Aggregator: "c2"}, 2, fx.now+10, ttl, tsTTL)
	set2 := SignSet(tg2, sn2, ts2, fx.keys[1:3])

	valid := make(map[string]bool)
	envs := slices.Concat([]protocol.MetaEnvelope{rootEnv, root2Env}, set1, set2)
	for _, env := range envs {
		valid[string(env.Signed)] = true
	}

	codec := protocol.NewWireCodec(fx.scheme.Params)
	seed := func(env protocol.MetaEnvelope) {
		frame, err := codec.Encode(protocol.MsgMeta{Env: env})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, env := range envs {
		seed(env)
	}
	// Three near misses, each refused: a flipped signature byte, a
	// document edited after signing, a document under another role.
	flipped := set2[0]
	flipped.Sigs = append([]protocol.MetaSig(nil), flipped.Sigs...)
	flipped.Sigs[0].Sig = append([]byte{flipped.Sigs[0].Sig[0] ^ 1}, flipped.Sigs[0].Sig[1:]...)
	edited := set1[2]
	edited.Signed = bytes.Replace(edited.Signed, []byte(`"version":1,`), []byte(`"version":7,`), 1)
	relabelled := set1[1]
	relabelled.Role = protocol.MetaRoleTimestamp
	for _, env := range []protocol.MetaEnvelope{flipped, edited, relabelled} {
		seed(env)
	}
	for _, set := range [][]protocol.MetaEnvelope{set1, slices.Concat([]protocol.MetaEnvelope{root2Env}, set2)} {
		frame, err := codec.Encode(protocol.MsgMetaSet{Envs: set})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	var genesis bytes.Buffer
	if err := EncodeGenesis(&genesis, fx.scheme, fx.gk, rootEnv); err != nil {
		f.Fatal(err)
	}
	f.Add(genesis.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		empty, rooted := fx.store(), fx.store()
		if err := rooted.Apply(rootEnv); err != nil {
			t.Fatal(err)
		}
		// Refusals are errors and expected; what a store adopted is
		// checked after each input.
		for _, s := range []*Store{empty, rooted} {
			if msg, err := codec.Decode(data); err == nil {
				switch m := msg.(type) {
				case protocol.MsgMeta:
					_ = s.Apply(m.Env)
				case protocol.MsgMetaSet:
					_ = s.ApplySet(m.Envs)
				}
			}
			if _, env, err := DecodeGenesis(bytes.NewReader(data), fx.scheme); err == nil {
				_ = s.Apply(env)
			}
			for _, env := range s.CurrentSet() {
				if !valid[string(env.Signed)] {
					t.Fatalf("adopted a %s document no seed signs: %q", env.Role, env.Signed)
				}
			}
		}
	})
}
