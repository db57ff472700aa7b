package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"revnf/internal/core"
)

// Binary framing. A connection opens with a 5-byte preamble — the ASCII
// magic "RVNF" plus a protocol version byte — then carries a sequence of
// frames:
//
//	[u32 little-endian length] [u8 type] [payload]
//
// where length counts the type byte plus the payload (so length ≥ 1), and
// is bounded by MaxFrameSize so a corrupt length prefix cannot make the
// reader buffer gigabytes. Payload integers are little-endian; floats are
// IEEE-754 bits.
//
// Frame types:
//
//	FrameRequest  (client→server): u32 vnf, u32 arrival, u32 duration,
//	                               f64 reliability, f64 payment,
//	                               u8 scheme                    (29 bytes)
//	FrameDecision (server→client): u64 id, u32 slot, u8 flags (bit0 =
//	                               admitted), u8 reason code    (14 bytes)
//	FrameError    (server→client): u16 status code, u8 reason code,
//	                               u16 detail length, detail bytes
//
// A FrameRequest's trailing scheme byte is the core.Scheme value the
// request pins, 0 for no preference.
//
// A FrameError is terminal: the server sends one and closes the
// connection.
const (
	// Magic opens every binary-framed connection.
	Magic = "RVNF"
	// Version is the protocol version carried after the magic, the only
	// one a preamble may name.
	Version = 2

	// FrameRequest carries one admission request.
	FrameRequest = 0x01
	// FrameDecision carries one admission decision.
	FrameDecision = 0x02
	// FrameError carries a terminal error; the sender closes after it.
	FrameError = 0x03

	// MaxFrameSize bounds the length prefix (type byte + payload).
	MaxFrameSize = 1 << 16
	// MaxRequestFrame is the size on the wire of the largest FrameRequest,
	// header included: a receiver of requests need wait for no more.
	MaxRequestFrame = headerSize + requestPayloadSize

	preambleSize        = 5
	headerSize          = 5 // u32 length + u8 type
	requestPayloadSize  = 29
	decisionPayloadSize = 14
	errorHeaderSize     = 5 // u16 code + u8 reason + u16 detail length
)

// Typed framing errors. Decoders return these (possibly wrapped with
// detail) for malformed input; they never panic.
var (
	// ErrBadMagic reports a connection preamble without the RVNF magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion reports an unsupported protocol version.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrBadFrame reports a frame header with an out-of-bounds length.
	ErrBadFrame = errors.New("wire: bad frame length")
	// ErrShortFrame reports bytes that end before the frame they open does.
	ErrShortFrame = errors.New("wire: incomplete frame")
	// ErrBadPayload reports a payload whose size or contents do not match
	// its frame type.
	ErrBadPayload = errors.New("wire: bad frame payload")
	// ErrRange reports a request field outside the frame encoding's range.
	ErrRange = errors.New("wire: field out of range")
)

// AppendPreamble appends the connection preamble.
func AppendPreamble(buf []byte) []byte {
	return append(append(buf, Magic...), Version)
}

// ReadPreamble consumes and validates the 5-byte connection preamble.
func ReadPreamble(r io.Reader) error {
	var p [preambleSize]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return fmt.Errorf("wire: reading preamble: %w", err)
	}
	if string(p[:4]) != Magic {
		return ErrBadMagic
	}
	if p[4] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, p[4])
	}
	return nil
}

// SplitFrame splits the frame at the head of buf into its type and its
// payload, which aliases buf; n is the frame's size on the wire, header
// included. Bytes that end inside the frame are ErrShortFrame, with n the
// length buf must reach before another call can say more (the header's,
// then the whole frame's, whose type is then already known); a length
// prefix out of bounds is ErrBadFrame, which no further bytes repair. Both
// are returned bare. This is the only parser of the frame header.
func SplitFrame(buf []byte) (frameType byte, payload []byte, n int, err error) {
	if len(buf) < headerSize {
		return 0, nil, headerSize, ErrShortFrame
	}
	length := binary.LittleEndian.Uint32(buf)
	if length < 1 || length > MaxFrameSize {
		return 0, nil, 0, ErrBadFrame
	}
	frameType, n = buf[4], headerSize-1+int(length)
	if len(buf) < n {
		return frameType, nil, n, ErrShortFrame
	}
	return frameType, buf[headerSize:n], n, nil
}

// FrameReader reads frames from a stream into a reusable buffer. Not safe
// for concurrent use.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over r. Wrap r in a bufio.Reader
// for byte-at-a-time transports; the FrameReader itself does not buffer
// beyond one frame.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, headerSize, 512)}
}

// Next reads one frame and returns its type and payload. The payload
// slice aliases the reader's internal buffer and is valid only until the
// next call. io.EOF is returned clean at a frame boundary;
// io.ErrUnexpectedEOF mid-frame.
func (fr *FrameReader) Next() (frameType byte, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.buf[:headerSize]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	// The header alone says how long the frame is, or that it cannot be.
	frameType, _, n, err := SplitFrame(fr.buf[:headerSize])
	if n == 0 {
		return 0, nil, err
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, headerSize, n)
	}
	payload = fr.buf[headerSize:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: reading frame payload: %w", io.ErrUnexpectedEOF)
	}
	return frameType, payload, nil
}

// DecodeRequest decodes a 29-byte FrameRequest payload into req; its
// trailing byte is the pinned core.Scheme value (0 for none). Zero heap
// allocations.
func DecodeRequest(payload []byte, req *Request) error {
	if len(payload) != requestPayloadSize {
		return fmt.Errorf("%w: request payload %d bytes, want %d",
			ErrBadPayload, len(payload), requestPayloadSize)
	}
	req.VNF = int(binary.LittleEndian.Uint32(payload[0:4]))
	req.Arrival = int(binary.LittleEndian.Uint32(payload[4:8]))
	req.Duration = int(binary.LittleEndian.Uint32(payload[8:12]))
	req.Reliability = math.Float64frombits(binary.LittleEndian.Uint64(payload[12:20]))
	req.Payment = math.Float64frombits(binary.LittleEndian.Uint64(payload[20:28]))
	req.Scheme = ""
	if payload[28] != 0 {
		s := core.Scheme(payload[28])
		if !s.Valid() {
			return fmt.Errorf("%w: scheme byte %d", ErrBadPayload, payload[28])
		}
		req.Scheme = s.Flag()
	}
	return nil
}

// DecodeDecision decodes a FrameDecision payload into d.
func DecodeDecision(payload []byte, d *Decision) error {
	if len(payload) != decisionPayloadSize {
		return fmt.Errorf("%w: decision payload %d bytes, want %d",
			ErrBadPayload, len(payload), decisionPayloadSize)
	}
	d.ID = binary.LittleEndian.Uint64(payload[0:8])
	d.Slot = int(binary.LittleEndian.Uint32(payload[8:12]))
	d.Admitted = payload[12]&1 != 0
	d.Reason = ReasonCode(payload[13])
	return nil
}

// DecodeError decodes a FrameError payload. The detail slice aliases the
// payload.
func DecodeError(payload []byte) (code int, reason ReasonCode, detail []byte, err error) {
	if len(payload) < errorHeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: error payload %d bytes, want ≥ %d",
			ErrBadPayload, len(payload), errorHeaderSize)
	}
	code = int(binary.LittleEndian.Uint16(payload[0:2]))
	reason = ReasonCode(payload[2])
	n := int(binary.LittleEndian.Uint16(payload[3:5]))
	if len(payload) != errorHeaderSize+n {
		return 0, 0, nil, fmt.Errorf("%w: error detail %d bytes, header says %d",
			ErrBadPayload, len(payload)-errorHeaderSize, n)
	}
	return code, reason, payload[errorHeaderSize:], nil
}

// AppendRequestFrame appends a complete v2 FrameRequest (header + payload),
// growing buf at most once. Integer fields must lie in [0, maxWireInt], the
// range both decoders take, and a non-empty Scheme must parse (ErrRange, buf
// unchanged).
func AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	if req.VNF < 0 || req.VNF > maxWireInt ||
		req.Arrival < 0 || req.Arrival > maxWireInt ||
		req.Duration < 0 || req.Duration > maxWireInt {
		return buf, fmt.Errorf("%w: vnf %d arrival %d duration %d",
			ErrRange, req.VNF, req.Arrival, req.Duration)
	}
	var scheme byte
	if req.Scheme != "" {
		s, err := core.ParseScheme(req.Scheme)
		if err != nil {
			return buf, fmt.Errorf("%w: scheme %q", ErrRange, req.Scheme)
		}
		scheme = byte(s)
	}
	if cap(buf)-len(buf) < MaxRequestFrame {
		buf = append(make([]byte, 0, len(buf)+MaxRequestFrame), buf...)
	}
	buf = appendHeader(buf, FrameRequest, requestPayloadSize)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.VNF))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Arrival))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Duration))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.Reliability))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(req.Payment))
	return append(buf, scheme), nil
}

// AppendDecisionFrame appends a complete FrameDecision. Slots outside
// uint32 saturate (a decision slot beyond 2^32 cannot occur in practice).
func AppendDecisionFrame(buf []byte, d *Decision) []byte {
	buf = appendHeader(buf, FrameDecision, decisionPayloadSize)
	buf = binary.LittleEndian.AppendUint64(buf, d.ID)
	slot := int64(d.Slot)
	if slot < 0 {
		slot = 0
	} else if slot > maxWireInt {
		slot = maxWireInt
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(slot))
	var flags byte
	if d.Admitted {
		flags |= 1
	}
	return append(buf, flags, byte(d.Reason))
}

// AppendErrorFrame appends a complete FrameError. Over-long detail is
// truncated to fit the frame.
func AppendErrorFrame(buf []byte, code int, reason ReasonCode, detail string) []byte {
	const maxDetail = MaxFrameSize - 1 - errorHeaderSize
	if len(detail) > maxDetail {
		detail = detail[:maxDetail]
	}
	buf = appendHeader(buf, FrameError, errorHeaderSize+len(detail))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(code))
	buf = append(buf, byte(reason))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(detail)))
	return append(buf, detail...)
}

func appendHeader(buf []byte, frameType byte, payloadLen int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+payloadLen))
	return append(buf, frameType)
}
