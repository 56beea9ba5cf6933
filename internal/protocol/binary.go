// Binary wire framing — the one framing of every connection, from the
// handshake (hello, node_hello, welcome and the typed errors answering
// them) on, of peer links and of the journal. A first frame that opens
// with '{' instead of binMagic is an older client's JSON hello, which
// OldWireRefusal answers.
//
// Frame layout (the outer transport already delimits the frame, so no
// inner length prefix is needed; all lengths are uvarints that the
// decoder bounds against the remaining frame before use):
//
//	byte 0    binMagic (0xDF — invalid as leading JSON, so frames are
//	          self-describing)
//	byte 1    flags: bit0 = body is natively encoded (vs embedded JSON),
//	          bit1 = Message.State, bit2 = trace context present
//	byte 2    type code: index into AllTypes (append-only — codes are
//	          wire-significant)
//	uvarint   Seq, GSeq, CSeq (three uvarints)
//	byte      class code: 0 none, 1+i = AllClasses[i], classEscape =
//	          length-prefixed class string follows
//	lp-string From, To, Group (uvarint length + bytes each)
//	trace     only when bit2 is set: uvarint TraceID, uvarint
//	          TraceParent, 1 byte TraceFlags — the causal trace context
//	rest      body: native binary for the hot types when bit0 is set,
//	          the body's JSON otherwise; empty = no body
//
// Hot types (SequencedBody, FloorEventBody, SuspendBody, ChatBody,
// AnnotateBody, and ForwardBody's replica, takeover and ack kinds) get
// native body codecs; every other body rides as embedded JSON, which
// keeps the codec small where it doesn't pay. Decoding is zero-copy:
// envelope and native-body strings alias the frame buffer (via
// unsafe.String) and an embedded JSON body or a forward's record is a
// subslice — wire bytes are immutable once handed to a decoder.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"dmps/internal/grouplog"
)

// binMagic is the first byte of every binary frame. An older client's
// JSON hello starts with '{' (0x7B), so one byte tells it apart.
const binMagic = 0xDF

// Frame flag bits (byte 1).
const (
	flagNativeBody = 1 << 0 // body is natively encoded, not embedded JSON
	flagState      = 1 << 1 // Message.State
	flagTrace      = 1 << 2 // trace context follows the Group string
)

// classEscape marks a class string outside AllClasses, carried
// length-prefixed after the code byte.
const classEscape = 0xFF

// typeCodes maps a Type to its AllTypes index — the binary type code.
var typeCodes = func() map[Type]byte {
	m := make(map[Type]byte, len(AllTypes))
	for i, t := range AllTypes {
		m[t] = byte(i)
	}
	return m
}()

// classCodes maps a class to its 1-based AllClasses code.
var classCodes = func() map[string]byte {
	m := make(map[string]byte, len(AllClasses))
	for i, c := range AllClasses {
		m[c] = byte(1 + i)
	}
	return m
}()

// encScratch pools encode scratch buffers: a frame is built in pooled
// scratch and copied out at its exact size, so the steady-state encode
// path allocates once per message no matter how the frame grows.
var encScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// EncodeBinary serializes a message as one binary frame. It counts
// against EncodeCount, which the encode-once benchmarks gate.
func EncodeBinary(m Message) ([]byte, error) {
	encodes.Add(1)
	return encodeFrame(m, nil)
}

// EncodeForward frames a node-to-node forward as a TForward message. It
// stays outside EncodeCount, which gates the per-recipient cost of a
// broadcast: a forward is per append and carries the already-encoded
// event bytes verbatim. When the inner frame — an event record's, or an
// invite's — belongs to a sampled trace the forward's envelope carries
// the same context, so the receiving peer records its span under the
// originating operation.
func EncodeForward(body ForwardBody) ([]byte, error) {
	m := Message{Type: TForward}
	inner := body.Msg
	if body.Record.Wire != nil {
		inner = body.Record.Wire
	}
	if id, _, fl := FrameTrace(inner); fl&TraceSampled != 0 {
		m.TraceID, m.TraceParent, m.TraceFlags = id, id, fl
	}
	return encodeFrame(m, &body)
}

// encodeFrame builds one frame around m's body, or around fwd's native
// form when fwd is set (a parameter of its own, not Message.bodyObj, so
// that the forward stays on its caller's stack).
func encodeFrame(m Message, fwd *ForwardBody) ([]byte, error) {
	code, ok := typeCodes[m.Type]
	if !ok {
		return nil, fmt.Errorf("protocol: encode: unknown type %q", m.Type)
	}
	bp := encScratch.Get().(*[]byte)
	b := (*bp)[:0]
	var flags byte
	if m.State {
		flags |= flagState
	}
	b = append(b, binMagic, flags, code)
	b = binary.AppendUvarint(b, uint64(m.Seq))
	b = binary.AppendUvarint(b, uint64(m.GSeq))
	b = binary.AppendUvarint(b, uint64(m.CSeq))
	if m.Class == "" {
		b = append(b, 0)
	} else if cc, ok := classCodes[m.Class]; ok {
		b = append(b, cc)
	} else {
		b = append(b, classEscape)
		b = appendLPString(b, m.Class)
	}
	b = appendLPString(b, m.From)
	b = appendLPString(b, m.To)
	b = appendLPString(b, m.Group)
	if m.TraceID != 0 {
		b[1] |= flagTrace
		b = binary.AppendUvarint(b, m.TraceID)
		b = binary.AppendUvarint(b, m.TraceParent)
		b = append(b, m.TraceFlags)
	}
	var err error
	if fwd != nil {
		b[1] |= flagNativeBody
		b, err = appendForward(b, fwd)
	} else {
		b, err = appendBody(b, m) // may flip flagNativeBody in b[1]
	}
	if err != nil {
		*bp = b
		encScratch.Put(bp)
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	encScratch.Put(bp)
	return out, nil
}

// appendBody appends the body: the retained native form if the frame
// was decoded natively, a native encoding when the typed body object is
// at hand, and the body's JSON otherwise. It flips flagNativeBody in
// b[1] for the native cases.
func appendBody(b []byte, m Message) ([]byte, error) {
	if m.bodyBin != nil {
		// Re-encoding a natively-decoded frame: the body bytes are
		// already in wire form.
		b[1] |= flagNativeBody
		return append(b, m.bodyBin...), nil
	}
	if m.bodyObj != nil && hasNativeCodec(m.Type) {
		// Native encode only when the MESSAGE TYPE owns a codec — the
		// decoder picks its reader by type, so a native flag on any other
		// type (an ack that happens to carry a SequencedBody, say) would
		// be unreadable on the far side.
		if nb, ok := appendNativeBody(b, m.bodyObj); ok {
			nb[1] |= flagNativeBody
			return nb, nil
		}
	}
	return append(b, m.Body...), nil
}

// appendNativeBody natively encodes the typed bodies that have a binary
// codec, reporting ok == false for everything else (which then rides as
// embedded JSON).
func appendNativeBody(b []byte, body any) ([]byte, bool) {
	switch v := body.(type) {
	case SequencedBody:
		return appendSequenced(b, v), true
	case *SequencedBody:
		return appendSequenced(b, *v), true
	case FloorEventBody:
		return appendFloorEvent(b, v), true
	case *FloorEventBody:
		return appendFloorEvent(b, *v), true
	case SuspendBody:
		return appendSuspend(b, v), true
	case *SuspendBody:
		return appendSuspend(b, *v), true
	case ChatBody:
		return appendLPString(b, v.Text), true
	case *ChatBody:
		return appendLPString(b, v.Text), true
	case AnnotateBody:
		return appendLPString(appendLPString(b, v.Kind), v.Data), true
	case *AnnotateBody:
		return appendLPString(appendLPString(b, v.Kind), v.Data), true
	}
	return b, false
}

func appendSequenced(b []byte, v SequencedBody) []byte {
	b = binary.AppendUvarint(b, uint64(v.Seq))
	b = appendLPString(b, v.Author)
	b = appendLPString(b, v.Kind)
	b = appendLPString(b, v.Data)
	b = binary.AppendUvarint(b, uint64(len(v.More)))
	for _, m := range v.More {
		b = appendSequenced(b, m)
	}
	return b
}

func appendFloorEvent(b []byte, v FloorEventBody) []byte {
	b = appendLPString(b, v.Mode)
	b = appendLPString(b, v.Holder)
	b = appendLPString(b, v.Member)
	b = appendLPString(b, v.Event)
	b = binary.AppendUvarint(b, uint64(v.QueuePosition))
	return binary.AppendUvarint(b, uint64(v.QueueLen))
}

func appendSuspend(b []byte, v SuspendBody) []byte {
	b = appendLPString(b, v.Member)
	b = appendLPString(b, v.Level)
	return appendStrings(b, v.Suspended)
}

// Native forward body. Replication is the peer link's hot path — one
// forward out and one ack back per logged append — so those kinds, and
// a migration's takeover beside them, are encoded natively: a replica
// or takeover forward carries its journal record in the journal's own
// encoding (grouplog.AppendRecord), appended straight into the frame, so
// an event record's frame rides verbatim. Every other kind keeps
// ForwardBody's JSON, which opens with '{' where a native body has its
// form byte:
//
//	byte    form: fwdReplica, fwdAck or fwdTakeover
//	uvarint ID
//	lp      From
//	rest    replica and takeover: the record, never empty;
//	        ack: lp key (Group), uvarint Head
//
// The frame checks only this shape; the record is read by Into, whose
// error a bad record wraps (grouplog.ErrRecord), so that the receiver
// can count it.
const (
	fwdReplica  = 1
	fwdAck      = 2
	fwdTakeover = 3
)

// forwardKinds names the kind of each native form.
var forwardKinds = [...]string{fwdReplica: ForwardReplica, fwdAck: ForwardAck, fwdTakeover: ForwardTakeover}

func appendForward(b []byte, v *ForwardBody) ([]byte, error) {
	form := slices.Index(forwardKinds[:], v.Kind)
	if form <= 0 {
		// By value: a pointer handed to json.Marshal would move every
		// forward to the heap, the native kinds included.
		raw, err := json.Marshal(*v)
		if err != nil {
			return b, fmt.Errorf("protocol: encode forward: %w", err)
		}
		return append(b, raw...), nil
	}
	b = append(b, byte(form))
	b = binary.AppendUvarint(b, uint64(v.ID))
	b = appendLPString(b, v.From)
	if v.Kind == ForwardAck {
		return binary.AppendUvarint(appendLPString(b, v.Group), uint64(v.Head)), nil
	}
	rec := v.Record
	if rec.Kind == 0 && v.Kind == ForwardReplica {
		rec = grouplog.WALRecord{Kind: grouplog.WALEvent, Key: v.Group, Wire: v.Msg}
	}
	return grouplog.AppendRecord(b, rec), nil
}

// appendStrings appends a counted run of lp-strings.
func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendLPString(b, s)
	}
	return b
}

func appendLPString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// FrameTrace peeks a binary frame's trace context without decoding the
// body: the envelope is read as DecodeBinary reads it, and nothing
// allocates for a sound frame. Frames without the extension — and bytes
// that are no frame — return the zero context, so the untraced fast
// path is two byte reads.
func FrameTrace(data []byte) (id, parent uint64, flags uint8) {
	if len(data) < 2 || data[0] != binMagic || data[1]&flagTrace == 0 {
		return 0, 0, 0
	}
	var m Message
	if _, err := decodeEnvelope(data, &m); err != nil {
		return 0, 0, 0
	}
	return m.TraceID, m.TraceParent, m.TraceFlags
}

// frameReader walks a frame with bounds-checked reads: every length is
// validated against the remaining bytes before use, so a malformed or
// truncated frame errors without panicking or allocating ahead of its
// real size.
type frameReader struct {
	data []byte
	off  int
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrDecode)
	}
	r.off += n
	return v, nil
}

func (r *frameReader) byteAt() (byte, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated frame", ErrDecode)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// lpBytes reads a length-prefixed byte run as a zero-copy subslice.
func (r *frameReader) lpBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: length %d exceeds frame", ErrDecode, n)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// lpString reads a length-prefixed string aliasing the frame buffer.
func (r *frameReader) lpString() (string, error) {
	b, err := r.lpBytes()
	if err != nil {
		return "", err
	}
	return zstring(b), nil
}

// zstring views bytes as a string without copying. Decoded messages
// alias their frame buffer; wire bytes are immutable once received, so
// the alias is safe for the life of the message.
func zstring(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeBinary parses one binary frame. The returned message aliases
// data (strings and body are subslices): callers must not mutate the
// buffer afterwards, which every transport already guarantees.
func DecodeBinary(data []byte) (Message, error) {
	var m Message
	off, err := decodeEnvelope(data, &m)
	if err != nil {
		return Message{}, err
	}
	body := data[off:]
	if data[1]&flagNativeBody != 0 {
		if len(body) == 0 {
			return Message{}, fmt.Errorf("%w: native-body flag on empty body", ErrDecode)
		}
		if !hasNativeCodec(m.Type) {
			return Message{}, fmt.Errorf("%w: native body on type %q", ErrDecode, m.Type)
		}
		if err := checkNativeBody(m.Type, body); err != nil {
			return Message{}, fmt.Errorf("%w: %s body: %v", ErrDecode, m.Type, err)
		}
		m.bodyBin = body
	} else if len(body) > 0 {
		if !json.Valid(body) {
			return Message{}, fmt.Errorf("%w: embedded body is not valid JSON", ErrDecode)
		}
		m.Body = json.RawMessage(body)
	}
	return m, nil
}

// decodeEnvelope reads a binary frame's envelope into m; the body
// starts at off.
func decodeEnvelope(data []byte, m *Message) (off int, err error) {
	if len(data) < 3 || data[0] != binMagic {
		return 0, fmt.Errorf("%w: not a binary frame", ErrDecode)
	}
	flags := data[1]
	code := int(data[2])
	if code >= len(AllTypes) {
		return 0, fmt.Errorf("%w: unknown type code %d", ErrDecode, code)
	}
	*m = Message{Type: AllTypes[code], State: flags&flagState != 0}
	r := &frameReader{data: data, off: 3}
	var u uint64
	if u, err = r.uvarint(); err != nil {
		return 0, err
	}
	m.Seq = int64(u)
	if u, err = r.uvarint(); err != nil {
		return 0, err
	}
	m.GSeq = int64(u)
	if u, err = r.uvarint(); err != nil {
		return 0, err
	}
	m.CSeq = int64(u)
	cc, err := r.byteAt()
	if err != nil {
		return 0, err
	}
	switch {
	case cc == 0:
	case cc == classEscape:
		if m.Class, err = r.lpString(); err != nil {
			return 0, err
		}
	case int(cc) <= len(AllClasses):
		m.Class = AllClasses[cc-1]
	default:
		return 0, fmt.Errorf("%w: unknown class code %d", ErrDecode, cc)
	}
	if m.From, err = r.lpString(); err != nil {
		return 0, err
	}
	if m.To, err = r.lpString(); err != nil {
		return 0, err
	}
	if m.Group, err = r.lpString(); err != nil {
		return 0, err
	}
	if flags&flagTrace != 0 {
		if m.TraceID, err = r.uvarint(); err != nil {
			return 0, err
		}
		if m.TraceParent, err = r.uvarint(); err != nil {
			return 0, err
		}
		if m.TraceFlags, err = r.byteAt(); err != nil {
			return 0, err
		}
	}
	return r.off, nil
}

// hasNativeCodec reports whether a type's body has a native binary
// codec (the hot event/request types).
func hasNativeCodec(t Type) bool {
	switch t {
	case TChatEvent, TAnnotateEvent, TFloorEvent, TSuspend, TResume, TChat, TAnnotate, TForward:
		return true
	}
	return false
}

// checkNativeBody walks a native body without building anything: every
// length and count is bounds-checked and the walk must consume the body
// exactly, so a truncated or corrupt frame is rejected at the decode
// boundary (not later, at some Into call on another goroutine) and a
// hostile count can never size an allocation.
func checkNativeBody(t Type, body []byte) error {
	r := &frameReader{data: body}
	var err error
	switch t {
	case TChatEvent, TAnnotateEvent:
		err = skipSequenced(r)
	case TFloorEvent:
		err = skipStrings(r, 4)
		for i := 0; err == nil && i < 2; i++ {
			_, err = r.uvarint()
		}
	case TSuspend, TResume:
		if err = skipStrings(r, 2); err == nil {
			err = skipCounted(r)
		}
	case TChat:
		err = skipStrings(r, 1)
	case TAnnotate:
		err = skipStrings(r, 2)
	case TForward:
		err = skipForward(r)
	}
	if err != nil {
		return err
	}
	if r.off != len(body) {
		return fmt.Errorf("%d trailing bytes", len(body)-r.off)
	}
	return nil
}

func skipStrings(r *frameReader, n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.lpBytes(); err != nil {
			return err
		}
	}
	return nil
}

// skipCounted skips a counted run of lp-strings. Each entry takes at
// least one byte, so a count beyond the remaining bytes is malformed.
func skipCounted(r *frameReader) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(r.data)-r.off) {
		return fmt.Errorf("count %d exceeds frame", n)
	}
	return skipStrings(r, int(n))
}

// skipForward walks a forward body (see appendForward for the layout).
func skipForward(r *frameReader) error {
	form, err := r.byteAt()
	if err != nil {
		return err
	}
	switch form {
	case '{':
		if !json.Valid(r.data) {
			return fmt.Errorf("forward body is not valid JSON")
		}
		r.off = len(r.data)
		return nil
	case fwdReplica, fwdAck, fwdTakeover:
	default:
		return fmt.Errorf("unknown forward form %d", form)
	}
	if _, err := r.uvarint(); err != nil { // ID
		return err
	}
	if err := skipStrings(r, 1); err != nil { // From
		return err
	}
	if form == fwdAck {
		if err := skipStrings(r, 1); err != nil { // key
			return err
		}
		_, err := r.uvarint() // head
		return err
	}
	if r.off == len(r.data) {
		return fmt.Errorf("forward without a record")
	}
	r.off = len(r.data)
	return nil
}

func skipSequenced(r *frameReader) error {
	if _, err := r.uvarint(); err != nil {
		return err
	}
	if err := skipStrings(r, 3); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(r.data)-r.off) {
		return fmt.Errorf("more count %d exceeds frame", n)
	}
	for i := uint64(0); i < n; i++ {
		if err := skipSequenced(r); err != nil {
			return err
		}
	}
	return nil
}

// intoNative decodes a natively-encoded body into out, which must be a
// pointer to the type's body struct — the same contract Into has for
// JSON bodies.
func intoNative(t Type, body []byte, out any) error {
	r := &frameReader{data: body}
	var err error
	switch t {
	case TChatEvent, TAnnotateEvent:
		v, ok := out.(*SequencedBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *SequencedBody", ErrBodyMismatch, t)
		}
		err = readSequenced(r, v)
	case TFloorEvent:
		v, ok := out.(*FloorEventBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *FloorEventBody", ErrBodyMismatch, t)
		}
		err = readFloorEvent(r, v)
	case TSuspend, TResume:
		v, ok := out.(*SuspendBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *SuspendBody", ErrBodyMismatch, t)
		}
		err = readSuspend(r, v)
	case TChat:
		v, ok := out.(*ChatBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *ChatBody", ErrBodyMismatch, t)
		}
		v.Text, err = r.lpString()
	case TAnnotate:
		v, ok := out.(*AnnotateBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *AnnotateBody", ErrBodyMismatch, t)
		}
		if v.Kind, err = r.lpString(); err == nil {
			v.Data, err = r.lpString()
		}
	default:
		return fmt.Errorf("%w: %s has no native codec", ErrBodyMismatch, t)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %w", ErrBodyMismatch, t, err)
	}
	return nil
}

func readSequenced(r *frameReader, v *SequencedBody) error {
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	v.Seq = int64(u)
	if v.Author, err = r.lpString(); err != nil {
		return err
	}
	if v.Kind, err = r.lpString(); err != nil {
		return err
	}
	if v.Data, err = r.lpString(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Each More entry needs at least 4 bytes on the wire, so a count
	// beyond the remaining bytes is malformed — checked before the
	// allocation it would otherwise inflate.
	if n > uint64(len(r.data)-r.off) {
		return fmt.Errorf("more count %d exceeds frame", n)
	}
	v.More = make([]SequencedBody, n)
	for i := range v.More {
		if err := readSequenced(r, &v.More[i]); err != nil {
			return err
		}
	}
	return nil
}

func readFloorEvent(r *frameReader, v *FloorEventBody) error {
	var err error
	if v.Mode, err = r.lpString(); err != nil {
		return err
	}
	if v.Holder, err = r.lpString(); err != nil {
		return err
	}
	if v.Member, err = r.lpString(); err != nil {
		return err
	}
	if v.Event, err = r.lpString(); err != nil {
		return err
	}
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	v.QueuePosition = int(int64(u))
	if u, err = r.uvarint(); err != nil {
		return err
	}
	v.QueueLen = int(int64(u))
	return nil
}

func readSuspend(r *frameReader, v *SuspendBody) error {
	var err error
	if v.Member, err = r.lpString(); err != nil {
		return err
	}
	if v.Level, err = r.lpString(); err != nil {
		return err
	}
	v.Suspended, err = readStrings(r)
	return err
}

// readStrings reads a counted run of lp-strings (nil when empty). The
// count is bounded by the remaining bytes before it sizes anything.
func readStrings(r *frameReader) ([]string, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("count %d exceeds frame", n)
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.lpString(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeForward reads a forward frame's body, the one reader of a
// forward, into a value the caller keeps: a native body stays on the
// caller's stack. A record that does not read back wraps
// grouplog.ErrRecord.
func DecodeForward(m Message) (v ForwardBody, err error) {
	if m.Type != TForward || m.bodyBin == nil {
		return v, fmt.Errorf("%w: %s is no forward frame", ErrBodyMismatch, m.Type)
	}
	if v, err = readForward(m.bodyBin); err != nil {
		err = fmt.Errorf("%w: %s: %w", ErrBodyMismatch, m.Type, err)
	}
	return v, err
}

// readForward decodes a forward body skipForward has accepted. The
// record aliases the frame.
func readForward(body []byte) (v ForwardBody, err error) {
	if len(body) > 0 && body[0] == '{' {
		var j ForwardBody // its own variable: only a JSON body escapes
		err = json.Unmarshal(body, &j)
		return j, err
	}
	r := &frameReader{data: body}
	form, err := r.byteAt()
	if err != nil {
		return v, err
	}
	v.Kind = forwardKinds[form] // a form skipForward accepted
	id, err := r.uvarint()
	if err != nil {
		return v, err
	}
	v.ID = int64(id)
	if v.From, err = r.lpString(); err != nil {
		return v, err
	}
	if form == fwdAck {
		if v.Group, err = r.lpString(); err != nil {
			return v, err
		}
		head, err := r.uvarint()
		v.Head = int64(head)
		return v, err
	}
	v.Record, err = grouplog.DecodeRecord(body[r.off:])
	return v, err
}
