package distrib

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"

	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pairing"
)

// bundleFile is the on-disk form of a signed bundle: the name of the
// pairing parameter set the frame is encoded under, the wire-codec frame,
// and the deployment signature over both.
type bundleFile struct {
	Params string `json:"params"`
	Frame  []byte `json:"frame"`
	Sig    []byte `json:"sig"`
}

// paramSets names the two pairing parameter sets there are.
var paramSets = map[string]func() *pairing.Params{"fast254": pairing.Fast254, "std512": pairing.Std512}

// signed is what the deployment key signs: the parameter set's name, a
// NUL, then the frame.
func (f bundleFile) signed() []byte { return append([]byte(f.Params+"\x00"), f.Frame...) }

// WriteBundle encodes one node's provisioning bundle under params, signs
// it and writes it.
func WriteBundle(path string, params *pairing.Params, b protocol.NodeBundle, priv ed25519.PrivateKey) error {
	f := bundleFile{Params: "fast254"}
	if params == pairing.Std512() {
		f.Params = "std512"
	}
	frame, err := protocol.NewWireCodec(params).Encode(b)
	if err != nil {
		return fmt.Errorf("distrib: encode bundle %s: %w", b.ID, err)
	}
	f.Frame = frame
	f.Sig = ed25519.Sign(priv, f.signed())
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	// 0600: the bundle holds the node's private key seed.
	return os.WriteFile(path, data, 0o600)
}

// LoadBundle reads a bundle file and verifies its signature against the
// deployment trust anchor before decoding it under the parameter set it
// names. It returns the bundle and that set.
func LoadBundle(path string, pub ed25519.PublicKey) (*protocol.NodeBundle, *pairing.Params, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f bundleFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("distrib: bundle %s: %w", path, err)
	}
	if !ed25519.Verify(pub, f.signed(), f.Sig) {
		return nil, nil, fmt.Errorf("distrib: bundle %s: signature does not verify against the deployment key", path)
	}
	set, ok := paramSets[f.Params]
	if !ok {
		return nil, nil, fmt.Errorf("distrib: bundle %s: unknown pairing parameter set %q", path, f.Params)
	}
	msg, err := protocol.NewWireCodec(set()).Decode(f.Frame)
	if err != nil {
		return nil, nil, fmt.Errorf("distrib: bundle %s: %w", path, err)
	}
	b, ok := msg.(protocol.NodeBundle)
	if !ok {
		return nil, nil, fmt.Errorf("distrib: bundle %s: frame is %T, not a node bundle", path, msg)
	}
	return &b, set(), nil
}
