package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"revnf/internal/core"
)

// Newline-delimited JSON. One JSON object per line; the same field names
// as the HTTP API:
//
//	request:  {"vnf":3,"reliability":0.95,"arrival":0,"duration":5,"payment":12.5}
//	decision: {"id":1,"admitted":true,"slot":1}
//	          {"id":2,"admitted":false,"reason":"declined","slot":1}
//	error:    {"error":{"code":503,"reason":"closed","detail":"..."}}
//
// An error line is terminal: the server sends one and closes. The request
// decoder is a hand-rolled strict parser (unknown fields rejected, like the
// HTTP handler's DisallowUnknownFields) that allocates nothing; it accepts
// exactly the flat object above — no nesting, no escapes — numbers in JSON's
// grammar (decimal.go), integers stricter: no sign, fraction or exponent.

// Typed NDJSON errors.
var (
	// ErrBadJSON reports a request or decision line that is not a flat JSON
	// object of the schema's fields.
	ErrBadJSON = errors.New("wire: malformed NDJSON line")
	// ErrUnknownField reports a field outside the line's schema.
	ErrUnknownField = errors.New("wire: unknown NDJSON field")
)

// DecodeNDJSONRequest parses one request line (with or without trailing
// newline) into req. The success path allocates nothing.
func DecodeNDJSONRequest(line []byte, req *Request) error {
	*req = Request{}
	o := object{b: line}
	for o.open(); o.field(); {
		switch string(o.key) {
		case "vnf":
			req.VNF = o.integer()
		case "arrival":
			req.Arrival = o.integer()
		case "duration":
			req.Duration = o.integer()
		case "reliability":
			req.Reliability = o.float()
		case "payment":
			req.Payment = o.float()
		case "scheme":
			// The one string-valued field: a scheme name resolved by the
			// canonical parser (either spelling), stored as its flag form.
			if s, err := core.ParseScheme(string(o.text())); err == nil {
				req.Scheme = s.Flag()
			} else {
				o.bad("%v", err)
			}
		default:
			o.err = fmt.Errorf("%w: %q", ErrUnknownField, o.key)
		}
	}
	return o.err
}

// DecodeNDJSONDecision parses one decision line into d. A terminal error
// line ({"error":{...}}) is reported as ErrUnknownField on "error": the
// caller falls back to its slow-path error handling.
func DecodeNDJSONDecision(line []byte, d *Decision) error {
	*d = Decision{}
	o := object{b: line}
	for o.open(); o.field(); {
		switch string(o.key) {
		case "id":
			d.ID = o.id()
		case "slot":
			d.Slot = o.integer()
		case "admitted":
			d.Admitted = o.boolean()
		case "reason":
			d.Reason = CodeForReason(string(o.text()))
		default:
			o.err = fmt.Errorf("%w: %q", ErrUnknownField, o.key)
		}
	}
	return o.err
}

// errNotObject is prebuilt: blank keep-alive lines, read past, fail without allocating.
var errNotObject = fmt.Errorf("%w: expected '{'", ErrBadJSON)

// object walks one flat JSON object line for both decoders: '{', key ':'
// value pairs separated by ',', '}', then only whitespace. field moves to
// each key in turn and the caller reads the value with the method for the
// type it expects. The first failure sticks in err and ends the walk.
type object struct {
	b, key []byte
	p, n   int // n: fields read
	num    decimal
	err    error
}

// open moves past the '{' (built in place: a returned object is copied).
func (o *object) open() {
	if o.p = skipWS(o.b, 0); o.p < len(o.b) && o.b[o.p] == '{' {
		o.p++
	} else {
		o.err = errNotObject
	}
}

// field advances past the next key and its ':' into o.key and reports
// whether there was one: false after the closing '}' and once o.err is set.
func (o *object) field() bool {
	p := skipWS(o.b, o.p)
	switch {
	case o.err != nil:
		return false
	case p >= len(o.b):
		o.bad("unterminated object")
		return false
	case o.b[p] == '}':
		if skipWS(o.b, p+1) != len(o.b) {
			o.bad("trailing bytes after object")
		}
		return false
	case o.n > 0 && o.b[p] != ',':
		o.bad("expected ',' at offset %d", p)
		return false
	case o.n > 0:
		p = skipWS(o.b, p+1)
	}
	o.n, o.p = o.n+1, p
	o.key = o.text()
	if p = skipWS(o.b, o.p); o.err == nil && (p >= len(o.b) || o.b[p] != ':') {
		o.bad("expected ':' after key")
	}
	o.p = skipWS(o.b, p+1)
	return o.err == nil
}

// bad records the walk's first failure, an ErrBadJSON.
func (o *object) bad(format string, a ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("%w: %s", ErrBadJSON, fmt.Sprintf(format, a...))
	}
}

func skipWS(b []byte, p int) int {
	for p < len(b) && b[p] <= ' ' && (b[p] == ' ' || b[p] == '\t' || b[p] == '\r' || b[p] == '\n') {
		p++
	}
	return p
}

// text reads a quoted string without escapes: a key or a string value.
func (o *object) text() (s []byte) {
	if o.p >= len(o.b) || o.b[o.p] != '"' {
		o.bad("expected '\"' at offset %d", o.p)
		return nil
	}
	q := o.p + 1
	for ; len(o.b)-q >= 8; q += 8 { // eight bytes a step to the first '"' or '\'
		v := binary.LittleEndian.Uint64(o.b[q:])
		x, y := v^0x2222222222222222, v^0x5C5C5C5C5C5C5C5C
		if z := ((x-0x0101010101010101)&^x | (y-0x0101010101010101)&^y) & 0x8080808080808080; z != 0 {
			q += bits.TrailingZeros64(z) / 8
			break
		}
	}
	for ; q < len(o.b); q++ {
		switch o.b[q] {
		case '"':
			s, o.p = o.b[o.p+1:q], q+1
			return s
		case '\\':
			o.bad("escapes not allowed in strings")
			return nil
		}
	}
	o.bad("unterminated string")
	return nil
}

// integer reads a non-negative integer of at most maxWireInt (a longer one
// has 19 digits in m, already above): stricter than JSON, which allows a
// sign, a fraction and an exponent.
func (o *object) integer() int {
	start := o.p
	if o.number(); o.num.neg || !o.num.integral || o.num.m > maxWireInt {
		o.bad("%q is not an integer in [0, 2^32)", o.b[start:o.p])
		return 0
	}
	return int(o.num.m)
}

// id reads a decision ID, an integer in [0, 2^64), from its digits: 2^64−1
// has 20, one more than the decimal kernel keeps.
func (o *object) id() uint64 {
	start := o.p
	if o.number(); o.num.neg || !o.num.integral {
		o.bad("%q is not an integer in [0, 2^64)", o.b[start:o.p])
		return 0
	}
	var id uint64
	for _, c := range o.b[start:o.p] {
		d := uint64(c - '0')
		if id > (math.MaxUint64-d)/10 {
			o.bad("%q is not an integer in [0, 2^64)", o.b[start:o.p])
			return 0
		}
		id = id*10 + d
	}
	return id
}

// float reads a number as the float64 nearest it, ties to even: the
// decimal kernel's answer, or strconv's beyond the kernel's range.
func (o *object) float() float64 {
	start := o.p
	o.number()
	f, ok := o.num.float()
	if !ok && o.err == nil {
		var err error
		if f, err = strconv.ParseFloat(string(o.b[start:o.p]), 64); err != nil {
			o.err = fmt.Errorf("%w: %w", ErrBadJSON, err)
		}
	}
	return f
}

func (o *object) boolean() bool {
	for i, lit := range [2]string{"false", "true"} {
		if len(o.b)-o.p >= len(lit) && string(o.b[o.p:o.p+len(lit)]) == lit {
			o.p += len(lit)
			return i == 1
		}
	}
	o.bad("expected boolean at offset %d", o.p)
	return false
}

const ndjsonRequestHint = 112 // the benchmark pool's lines are 92–99 B

// AppendNDJSONRequest appends one request line, newline-terminated. It grows
// buf once for a line of up to ndjsonRequestHint bytes (no scheme, integers
// under 10⁵, 17-digit floats in [0.1, 10⁴)), and once more past it. It
// checks nothing: an integer field outside [0, maxWireInt], which
// AppendRequestFrame refuses with ErrRange, gives a line DecodeNDJSONRequest
// refuses with ErrBadJSON.
func AppendNDJSONRequest(buf []byte, req *Request) []byte {
	if cap(buf)-len(buf) < ndjsonRequestHint {
		buf = append(make([]byte, 0, len(buf)+ndjsonRequestHint), buf...)
	}
	buf = append(buf, `{"vnf":`...)
	buf = strconv.AppendInt(buf, int64(req.VNF), 10)
	buf = append(buf, `,"reliability":`...)
	buf = appendShortest(buf, req.Reliability)
	buf = append(buf, `,"arrival":`...)
	buf = strconv.AppendInt(buf, int64(req.Arrival), 10)
	buf = append(buf, `,"duration":`...)
	buf = strconv.AppendInt(buf, int64(req.Duration), 10)
	buf = append(buf, `,"payment":`...)
	buf = appendShortest(buf, req.Payment)
	if req.Scheme != "" {
		buf = append(buf, `,"scheme":"`...)
		buf = append(buf, req.Scheme...)
		buf = append(buf, '"')
	}
	return append(buf, '}', '\n')
}

// AppendNDJSONDecision appends one decision line, newline-terminated.
// Rejections carry the reason string; admissions omit it, mirroring the
// HTTP response schema.
func AppendNDJSONDecision(buf []byte, d *Decision) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendUint(buf, d.ID, 10)
	if d.Admitted {
		buf = append(buf, `,"admitted":true`...)
	} else {
		buf = append(buf, `,"admitted":false,"reason":"`...)
		buf = append(buf, d.Reason.Reason()...)
		buf = append(buf, '"')
	}
	buf = append(buf, `,"slot":`...)
	buf = strconv.AppendInt(buf, int64(d.Slot), 10)
	return append(buf, '}', '\n')
}

// AppendNDJSONError appends one terminal error line, newline-terminated.
// The detail is escaped as a JSON string: a decoder's error quotes what it
// refused.
func AppendNDJSONError(buf []byte, code int, reason ReasonCode, detail string) []byte {
	buf = append(buf, `{"error":{"code":`...)
	buf = strconv.AppendInt(buf, int64(code), 10)
	buf = append(buf, `,"reason":"`...)
	buf = append(buf, reason.Reason()...)
	buf = append(buf, `","detail":"`...)
	for i := 0; i < len(detail); i++ {
		switch c := detail[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < ' ':
			buf = append(buf, '\\', 'u', '0', '0', '0'+c>>4, "0123456789abcdef"[c&15])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"', '}', '}', '\n')
}
