package protocol

// Wire codec for live transports. The discrete-event simulator passes
// messages as Go values, so pointers (BLS points, group keys, nested bft
// messages) travel for free; a live transport cannot do that. WireCodec
// turns every protocol message into a binary frame — a one-byte type id
// followed by the body — and back.
//
// There is no per-message code. NewWireCodec compiles one plan per
// registered type from the Go struct itself: fields in declaration order,
// no field names or tags on the wire. Scalar encodings:
//
//	unsigned ints   uvarint, minimal length, range-checked against the field
//	signed ints     zig-zag, then uvarint
//	bool            one byte, 0 or 1
//	float64         8 bytes, IEEE-754 bits, big endian
//	string, []byte  uvarint length, then the bytes
//	[N]byte         the N bytes
//	[]T             uvarint count, then the elements
//	map[K]V         uvarint count, then key/value pairs in ascending key order
//	struct          its fields
//	*T              one presence byte (0 or 1), then T if present; a field
//	                tagged `wire:"required"` must be present
//
// Four things a struct walk cannot express have hooks: *pairing.Point
// (pairing.PointBytes / ParsePoint, so the on-curve and subgroup checks
// run on every point off the wire; nil travels as infinity), big.Int (a
// scalar below the group order: uvarint length, minimal big-endian bytes),
// an `any` field tagged `wire:"groupkey"` (nil or a *bls.GroupKey, encoded
// as that pointer) and one tagged `wire:"bft"` (MsgBFT.Inner: the type id
// and body of a bft.* message, inline — frames nest exactly once).
//
// Every value has exactly one encoding (Encode(Decode(x)) == x for every x
// Decode accepts), and Decode never panics and never allocates more than a
// small multiple of its input: it rejects unknown type ids, truncated
// input, trailing bytes, declared lengths beyond the remaining input,
// non-minimal varints, unsorted map keys and malformed points
// (FuzzWireDecode, TestWireDecodeErrors). The type ids and field orders are
// pinned by testdata/wire.golden.
//
// The codec is the single serialization authority: the TCP backend appends
// Encode's output to its frame header, and the in-process backend can
// round-trip every message through it so codec bugs surface in fast tests.
//
// The three byte strings a node seals, orders and ledgers — Event.Encode,
// Ack.Encode, BroadcastItem.Encode — are built by the same compiler (see
// payloads): a kind byte from a block no message uses, then the fields. The
// kind byte is their domain separation: a link tag covers sender, addressee
// and payload but not what the payload is, so each payload decoder accepts
// its own kind only, and Decode accepts none of them. What is signed as text
// (canonical update, batch, release and config bytes, metadata documents)
// keeps its own pinned form and rides here as opaque []byte.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"

	"cicero/internal/bft"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
)

// Decode errors. Each names a class of malformed input; Decode wraps them
// with the frame type.
var (
	errWireShort     = errors.New("input ends inside a value, or a declared length exceeds it")
	errWireVarint    = errors.New("varint is not minimal or overflows 64 bits")
	errWireRange     = errors.New("integer out of range for its field")
	errWireBool      = errors.New("bool or presence byte is neither 0 nor 1")
	errWireRequired  = errors.New("required value is absent")
	errWireMapOrder  = errors.New("map keys are not strictly ascending")
	errWireScalar    = errors.New("scalar has a leading zero byte or is not below the group order")
	errWireInner     = errors.New("bft frame does not hold a bft message")
	errWireGroupKey  = errors.New("group key field holds something other than a *bls.GroupKey")
	errWireTrailing  = errors.New("trailing bytes after the frame")
	errWireKind      = errors.New("kind byte names another kind of frame")
	errWireEmpty     = errors.New("protocol: wire: empty frame")
	errWireNilEncode = errors.New("protocol: wire: cannot encode a nil message")
)

// plan encodes and decodes the values of one Go type. enc appends v's
// encoding to b; dec fills v, which is settable, from r. min is the fewest
// bytes any value of the type occupies: it bounds a declared element count
// by the input that remains, before anything is allocated.
type plan struct {
	enc func(b []byte, v reflect.Value) ([]byte, error)
	dec func(r *wireReader, v reflect.Value) error
	min int
}

// wireEntry is one registered message type.
type wireEntry struct {
	id   byte
	name string
	typ  reflect.Type
	plan *plan
	// inner marks the bft.* messages, the only types MsgBFT.Inner carries.
	inner bool
	// size is the length of the last frame encoded for this type: the
	// capacity Encode reserves for the next one.
	size atomic.Uint32
}

// WireCodec encodes and decodes the protocol's message vocabulary.
// Encoding needs pairing parameters to serialize curve points; both sides
// of a connection must use the same parameter set.
type WireCodec struct {
	params *pairing.Params
	byID   [256]*wireEntry
	byType map[reflect.Type]*wireEntry
}

// NewWireCodec builds a codec over the given pairing parameters (nil
// defaults to Fast254, the deployment default). The type ids are the wire
// format: never renumber one, give a new message the next free id of its
// block (testdata/wire.golden pins them).
func NewWireCodec(params *pairing.Params) *WireCodec {
	if params == nil {
		params = pairing.Fast254()
	}
	c := &WireCodec{params: params, byType: make(map[reflect.Type]*wireEntry)}
	register[MsgEvent](c, 1, "event")
	register[MsgAck](c, 2, "ack")
	register[MsgUpdate](c, 3, "update")
	register[MsgAggUpdate](c, 4, "agg-update")
	register[MsgBatchUpdate](c, 5, "batch-update")
	register[MsgConfig](c, 6, "config")
	register[MsgConfigShare](c, 7, "config-share")
	register[MsgHeartbeat](c, 8, "heartbeat")
	register[MsgRecoverRequest](c, 9, "recover-request")
	register[MsgRecoverState](c, 10, "recover-state")
	register[MsgResyncRequest](c, 11, "resync-request")
	register[MsgStateTransfer](c, 12, "state-transfer")
	register[MsgReshareDeal](c, 13, "reshare-deal")
	register[MsgReshareSub](c, 14, "reshare-sub")
	register[MsgBFT](c, 15, "bft")
	// TUF-style metadata vocabulary (see meta.go).
	register[MsgMeta](c, 16, "meta")
	register[MsgMetaSet](c, 17, "meta-set")
	register[MsgMetaRequest](c, 18, "meta-request")
	register[MsgMetaShare](c, 19, "meta-share")
	register[MsgMetaSig](c, 20, "meta-sig")
	// Atomic-broadcast internals (MsgBFT's Inner).
	register[bft.Request](c, 32, "bft-request")
	register[bft.PrePrepare](c, 33, "bft-preprepare")
	register[bft.Prepare](c, 34, "bft-prepare")
	register[bft.Commit](c, 35, "bft-commit")
	register[bft.ViewChange](c, 36, "bft-viewchange")
	register[bft.NewView](c, 37, "bft-newview")
	// The one unauthenticated southbound message a switch is sent (and
	// refuses). Ids 48–53 and 55 belonged to the bundle, barrier, packet-in
	// and role messages nothing sent; they are retired, never reused.
	register[openflow.PacketOut](c, 54, "packet-out")
	// Multi-process deployment vocabulary (see distrib.go).
	register[NodeBundle](c, 64, "node-bundle")
	register[MsgNodeHello](c, 65, "node-hello")
	register[MsgNodeQuery](c, 66, "node-query")
	register[MsgNodeSnapshot](c, 67, "node-snapshot")
	register[MsgInjectFlow](c, 68, "inject-flow")
	register[MsgFlowDone](c, 69, "flow-done")
	register[MsgNudge](c, 70, "node-nudge")
	return c
}

// payloads holds the plans of the three signed payload kinds, one instance
// for the process: Event.Encode and its five siblings are called with no
// codec at hand, from every node's goroutine. It has no pairing parameters;
// a payload struct that grew a curve point or scalar would panic here, at
// init. Ids 80–82 are a block of their own: no message may take one.
var payloads = func() *WireCodec {
	c := &WireCodec{byType: make(map[reflect.Type]*wireEntry)}
	register[Event](c, 80, "payload-event")
	register[Ack](c, 81, "payload-ack")
	register[BroadcastItem](c, 82, "payload-item")
	return c
}()

// encodePayload encodes one of the three payload kinds. Their plans hold no
// hook and no required pointer, so there is nothing that can fail.
func encodePayload(v any) []byte {
	b, err := payloads.Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// decodePayload parses data as the payload kind T, and as nothing else: the
// bytes of an ack, of a message frame or of another payload are refused by
// their first byte.
func decodePayload[T any](data []byte) (T, error) {
	var v T
	e := payloads.byType[reflect.TypeOf(v)]
	if len(data) == 0 {
		return v, errWireEmpty
	}
	if data[0] != e.id {
		return v, fmt.Errorf("protocol: wire: decode %s: %w (%d)", e.name, errWireKind, data[0])
	}
	if err := e.decode(data, reflect.ValueOf(&v).Elem()); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

var bftPkgPath = reflect.TypeOf(bft.Request{}).PkgPath()

// register compiles T's plan and enters it under id. A clash, or a type
// the compiler cannot walk, is a programming error and panics here, in
// every test that builds a codec.
func register[T any](c *WireCodec, id byte, name string) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if c.byID[id] != nil || c.byType[t] != nil {
		panic(fmt.Sprintf("protocol: wire: %s (%v) registered twice, or id %d taken", name, t, id))
	}
	e := &wireEntry{id: id, name: name, typ: t, plan: c.compile(t, ""), inner: t.PkgPath() == bftPkgPath}
	c.byID[id] = e
	c.byType[t] = e
}

// RegisteredTypes returns the sorted frame-type names the codec accepts
// (tests assert full coverage against this list).
func (c *WireCodec) RegisteredTypes() []string {
	names := make([]string, 0, len(c.byType))
	for _, e := range c.byType {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return names
}

// Encode serializes msg into a frame: its type id, then its body.
func (c *WireCodec) Encode(msg fabric.Message) ([]byte, error) {
	return c.AppendEncode(nil, msg)
}

// AppendEncode appends msg's frame to dst, so a transport can encode
// straight behind its own header.
func (c *WireCodec) AppendEncode(dst []byte, msg fabric.Message) ([]byte, error) {
	if msg == nil {
		return nil, errWireNilEncode
	}
	v := reflect.ValueOf(msg)
	e, ok := c.byType[v.Type()]
	if !ok {
		return nil, fmt.Errorf("protocol: wire: unregistered message type %T", msg)
	}
	start := len(dst)
	dst = append(slices.Grow(dst, int(e.size.Load())), e.id)
	dst, err := e.plan.enc(dst, v)
	if err != nil {
		return nil, fmt.Errorf("protocol: wire: encode %s: %w", e.name, err)
	}
	e.size.Store(uint32(len(dst) - start))
	return dst, nil
}

// Decode parses a frame produced by Encode. It returns an error (never
// panics) on anything else; the decoded message shares no memory with
// data.
func (c *WireCodec) Decode(data []byte) (fabric.Message, error) {
	if len(data) == 0 {
		return nil, errWireEmpty
	}
	e := c.byID[data[0]]
	if e == nil {
		return nil, fmt.Errorf("protocol: wire: unknown frame type %d", data[0])
	}
	v := reflect.New(e.typ).Elem()
	if err := e.decode(data, v); err != nil {
		return nil, err
	}
	return v.Interface(), nil
}

// decode fills v, a settable value of e's type, from the body of the frame
// data, whose first byte the caller has matched to e. The frame must end
// where the value does.
func (e *wireEntry) decode(data []byte, v reflect.Value) error {
	r := &wireReader{buf: data, off: 1}
	err := e.plan.dec(r, v)
	if err == nil && r.off != len(data) {
		err = errWireTrailing
	}
	if err != nil {
		return fmt.Errorf("protocol: wire: decode %s: %w", e.name, err)
	}
	return nil
}

// ---- reader ----

// wireReader is a cursor over one frame.
type wireReader struct {
	buf []byte
	off int
}

// take returns the next n bytes (a view into the frame).
func (r *wireReader) take(n int) ([]byte, error) {
	if n > len(r.buf)-r.off {
		return nil, errWireShort
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *wireReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errWireShort
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// flag reads a bool or presence byte.
func (r *wireReader) flag() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, errWireBool
	}
	return b == 1, nil
}

// uvarint reads a minimally encoded unsigned varint.
func (r *wireReader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		return 0, errWireShort
	}
	if n < 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		return 0, errWireVarint
	}
	r.off += n
	return u, nil
}

// count reads the element count of a collection whose elements occupy at
// least elemMin bytes each, rejecting one the remaining input cannot hold.
func (r *wireReader) count(elemMin int) (int, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(len(r.buf)-r.off)/uint64(max(elemMin, 1)) {
		return 0, errWireShort
	}
	return int(u), nil
}

// bytes reads a length-prefixed byte string (a view into the frame).
func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

// ---- plan compiler ----

var (
	pointType  = reflect.TypeOf((*pairing.Point)(nil))
	scalarType = reflect.TypeOf(big.Int{})
	groupKeyT  = reflect.TypeOf((*bls.GroupKey)(nil))
)

// compile builds the plan for t. tag is the `wire` struct tag of the field
// being compiled ("" elsewhere).
func (c *WireCodec) compile(t reflect.Type, tag string) *plan {
	switch t {
	case pointType, scalarType:
		if c.params == nil {
			panic(fmt.Sprintf("protocol: wire: %v in a codec without pairing parameters", t))
		}
		if t == pointType {
			return c.pointPlan()
		}
		return c.scalarPlan()
	}
	switch t.Kind() {
	case reflect.Bool:
		return &plan{min: 1, enc: encBool, dec: decBool}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &plan{min: 1, enc: encInt, dec: decInt}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &plan{min: 1, enc: encUint, dec: decUint}
	case reflect.Float64:
		return &plan{min: 8, enc: encFloat, dec: decFloat}
	case reflect.String:
		return &plan{min: 1, enc: encString, dec: decString}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return &plan{min: 1, enc: encBytes, dec: decBytes}
		}
		return slicePlan(c.compile(t.Elem(), ""))
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			return &plan{min: t.Len(), enc: encByteArray, dec: decByteArray}
		}
	case reflect.Map:
		return mapPlan(t, c.compile(t.Key(), ""), c.compile(t.Elem(), ""))
	case reflect.Struct:
		return c.structPlan(t)
	case reflect.Pointer:
		return pointerPlan(c.compile(t.Elem(), ""), tag == "required")
	case reflect.Interface:
		switch tag {
		case "groupkey":
			return groupKeyPlan(c.compile(groupKeyT, ""))
		case "bft":
			return c.innerPlan()
		}
	}
	panic(fmt.Sprintf("protocol: wire: no encoding for %v (tag %q)", t, tag))
}

func encBool(b []byte, v reflect.Value) ([]byte, error) {
	if v.Bool() {
		return append(b, 1), nil
	}
	return append(b, 0), nil
}

func decBool(r *wireReader, v reflect.Value) error {
	x, err := r.flag()
	v.SetBool(x)
	return err
}

func encInt(b []byte, v reflect.Value) ([]byte, error) {
	return binary.AppendVarint(b, v.Int()), nil
}

func decInt(r *wireReader, v reflect.Value) error {
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	x := int64(u>>1) ^ -int64(u&1)
	if v.OverflowInt(x) {
		return errWireRange
	}
	v.SetInt(x)
	return nil
}

func encUint(b []byte, v reflect.Value) ([]byte, error) {
	return binary.AppendUvarint(b, v.Uint()), nil
}

func decUint(r *wireReader, v reflect.Value) error {
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(u) {
		return errWireRange
	}
	v.SetUint(u)
	return nil
}

func encFloat(b []byte, v reflect.Value) ([]byte, error) {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
}

func decFloat(r *wireReader, v reflect.Value) error {
	raw, err := r.take(8)
	if err != nil {
		return err
	}
	v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(raw)))
	return nil
}

func encString(b []byte, v reflect.Value) ([]byte, error) {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
}

func decString(r *wireReader, v reflect.Value) error {
	raw, err := r.bytes()
	if err != nil {
		return err
	}
	v.SetString(string(raw))
	return nil
}

func encBytes(b []byte, v reflect.Value) ([]byte, error) {
	s := v.Bytes()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
}

// decBytes leaves an empty byte string nil: nil and empty encode alike.
func decBytes(r *wireReader, v reflect.Value) error {
	raw, err := r.bytes()
	if err != nil || len(raw) == 0 {
		return err
	}
	v.SetBytes(bytes.Clone(raw))
	return nil
}

func encByteArray(b []byte, v reflect.Value) ([]byte, error) {
	if v.CanAddr() {
		return append(b, v.Bytes()...), nil
	}
	// A message arrives as a value in an interface, which reflection
	// cannot address: copy byte by byte rather than allocate a copy.
	for i, n := 0, v.Len(); i < n; i++ {
		b = append(b, byte(v.Index(i).Uint()))
	}
	return b, nil
}

func decByteArray(r *wireReader, v reflect.Value) error {
	raw, err := r.take(v.Len())
	if err != nil {
		return err
	}
	copy(v.Bytes(), raw)
	return nil
}

func slicePlan(elem *plan) *plan {
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			var err error
			for i := 0; i < n && err == nil; i++ {
				b, err = elem.enc(b, v.Index(i))
			}
			return b, err
		},
		// A zero count leaves the slice nil: nil and empty encode alike.
		dec: func(r *wireReader, v reflect.Value) error {
			n, err := r.count(elem.min)
			if err != nil || n == 0 {
				return err
			}
			v.Grow(n)
			v.SetLen(n)
			for i := 0; i < n && err == nil; i++ {
				err = elem.dec(r, v.Index(i))
			}
			return err
		},
	}
}

// mapPlan writes entries in ascending key order and accepts no other, so
// a map has one encoding. Keys are signed integers or strings.
func mapPlan(t reflect.Type, key, elem *plan) *plan {
	var less func(a, b reflect.Value) bool
	switch t.Key().Kind() {
	case reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	default:
		panic(fmt.Sprintf("protocol: wire: no key order for %v", t))
	}
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
			b = binary.AppendUvarint(b, uint64(len(keys)))
			var err error
			for _, k := range keys {
				if b, err = key.enc(b, k); err != nil {
					return b, err
				}
				if b, err = elem.enc(b, v.MapIndex(k)); err != nil {
					return b, err
				}
			}
			return b, nil
		},
		// A zero count leaves the map nil: nil and empty encode alike.
		dec: func(r *wireReader, v reflect.Value) error {
			n, err := r.count(key.min + elem.min)
			if err != nil || n == 0 {
				return err
			}
			v.Set(reflect.MakeMapWithSize(t, n))
			var prev reflect.Value
			for i := 0; i < n; i++ {
				k := reflect.New(t.Key()).Elem()
				if err := key.dec(r, k); err != nil {
					return err
				}
				if i > 0 && !less(prev, k) {
					return errWireMapOrder
				}
				e := reflect.New(t.Elem()).Elem()
				if err := elem.dec(r, e); err != nil {
					return err
				}
				v.SetMapIndex(k, e)
				prev = k
			}
			return nil
		},
	}
}

// structPlan walks t's fields in declaration order. All must be exported:
// a struct with hidden state needs a hook, not a walk.
func (c *WireCodec) structPlan(t reflect.Type) *plan {
	fields := make([]*plan, t.NumField())
	size := 0
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("protocol: wire: %v has unexported field %s", t, f.Name))
		}
		fields[i] = c.compile(f.Type, f.Tag.Get("wire"))
		size += fields[i].min
	}
	return &plan{
		min: size,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			var err error
			for i, f := range fields {
				if b, err = f.enc(b, v.Field(i)); err != nil {
					return b, fmt.Errorf("%s: %w", t.Field(i).Name, err)
				}
			}
			return b, nil
		},
		dec: func(r *wireReader, v reflect.Value) error {
			for i, f := range fields {
				if err := f.dec(r, v.Field(i)); err != nil {
					return fmt.Errorf("%s: %w", t.Field(i).Name, err)
				}
			}
			return nil
		},
	}
}

// pointerPlan writes a presence byte, then the pointee. A required
// pointer refuses nil on encode and absence on decode.
func pointerPlan(elem *plan, required bool) *plan {
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				if required {
					return b, errWireRequired
				}
				return append(b, 0), nil
			}
			return elem.enc(append(b, 1), v.Elem())
		},
		dec: func(r *wireReader, v reflect.Value) error {
			present, err := r.flag()
			if err != nil {
				return err
			}
			if !present {
				if required {
					return errWireRequired
				}
				return nil
			}
			v.Set(reflect.New(v.Type().Elem()))
			return elem.dec(r, v.Elem())
		},
	}
}

// ---- hooks ----

// pointPlan carries a curve point as pairing.PointBytes, whose first byte
// fixes its length, and parses it with ParsePoint: the trust boundary for
// every point off the wire. A nil point travels as infinity.
func (c *WireCodec) pointPlan() *plan {
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			return append(b, c.params.PointBytes(v.Interface().(*pairing.Point))...), nil
		},
		dec: func(r *wireReader, v reflect.Value) error {
			n := 1
			if r.off < len(r.buf) && r.buf[r.off] != 0 {
				n = c.params.PointSize()
			}
			raw, err := r.take(n)
			if err != nil {
				return err
			}
			pt, err := c.params.ParsePoint(raw)
			if err != nil {
				return err
			}
			v.Set(reflect.ValueOf(pt))
			return nil
		},
	}
}

// scalarPlan carries a big.Int that is a scalar of the pairing group:
// non-negative and below the order r. It is reached through pointerPlan,
// so v is addressable.
func (c *WireCodec) scalarPlan() *plan {
	width := (c.params.R.BitLen() + 7) / 8
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			x := v.Addr().Interface().(*big.Int)
			if x.Sign() < 0 || x.Cmp(c.params.R) >= 0 {
				return b, errWireScalar
			}
			raw := x.Bytes()
			return append(binary.AppendUvarint(b, uint64(len(raw))), raw...), nil
		},
		dec: func(r *wireReader, v reflect.Value) error {
			raw, err := r.bytes()
			if err != nil {
				return err
			}
			if len(raw) > width || (len(raw) > 0 && raw[0] == 0) {
				return errWireScalar
			}
			if v.Addr().Interface().(*big.Int).SetBytes(raw).Cmp(c.params.R) >= 0 {
				return errWireScalar
			}
			return nil
		},
	}
}

// groupKeyPlan carries an `any` field that holds nil or a *bls.GroupKey
// (typed any only to spare the message package an import) as that pointer.
// An absent key decodes to a nil interface, not a typed nil pointer.
func groupKeyPlan(ptr *plan) *plan {
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				return ptr.enc(b, reflect.Zero(groupKeyT))
			}
			if v.Elem().Type() != groupKeyT {
				return b, errWireGroupKey
			}
			return ptr.enc(b, v.Elem())
		},
		dec: func(r *wireReader, v reflect.Value) error {
			gk := reflect.New(groupKeyT).Elem()
			if err := ptr.dec(r, gk); err != nil || gk.IsNil() {
				return err
			}
			v.Set(gk)
			return nil
		},
	}
}

// innerPlan carries MsgBFT.Inner inline: the type id and body of a
// registered bft.* message. Those types hold no frames themselves, so
// nesting stops at one level by construction.
func (c *WireCodec) innerPlan() *plan {
	return &plan{
		min: 1,
		enc: func(b []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				return b, errWireInner
			}
			e := c.byType[v.Elem().Type()]
			if e == nil || !e.inner {
				return b, errWireInner
			}
			return e.plan.enc(append(b, e.id), v.Elem())
		},
		dec: func(r *wireReader, v reflect.Value) error {
			id, err := r.byte()
			if err != nil {
				return err
			}
			e := c.byID[id]
			if e == nil || !e.inner {
				return errWireInner
			}
			inner := reflect.New(e.typ).Elem()
			if err := e.plan.dec(r, inner); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			v.Set(inner)
			return nil
		},
	}
}
