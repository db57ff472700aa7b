package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"revnf/internal/core"
	"revnf/internal/trace"
)

var testRequests = []Request{
	{VNF: 3, Arrival: 0, Duration: 5, Reliability: 0.95, Payment: 12.5},
	{VNF: 0, Arrival: 1, Duration: 1, Reliability: 0.999999, Payment: 0},
	{VNF: 41, Arrival: 1 << 20, Duration: 300, Reliability: 0.5, Payment: 1e9},
	{},
}

func TestFrameRequestRoundTrip(t *testing.T) {
	var buf []byte
	for _, want := range testRequests {
		var err error
		buf, err = AppendRequestFrame(buf[:0], &want)
		if err != nil {
			t.Fatalf("AppendRequestFrame(%+v): %v", want, err)
		}
		fr := NewFrameReader(bytes.NewReader(buf))
		typ, payload, err := fr.Next()
		if err != nil || typ != FrameRequest {
			t.Fatalf("Next() = (%#x, _, %v), want (FrameRequest, _, nil)", typ, err)
		}
		var got Request
		if err := DecodeRequest(payload, &got); err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("trailing Next() err = %v, want io.EOF", err)
		}
	}
}

func TestFrameRequestRange(t *testing.T) {
	for _, bad := range []Request{
		{VNF: -1, Duration: 1},
		{Arrival: math.MaxUint32 + 1, Duration: 1},
		{Duration: -5},
	} {
		if _, err := AppendRequestFrame(nil, &bad); !errors.Is(err, ErrRange) {
			t.Fatalf("AppendRequestFrame(%+v) err = %v, want ErrRange", bad, err)
		}
		// The refusal comes before the encoder reserves its room: the
		// caller's buffer comes back as it went in.
		if got, _ := AppendRequestFrame(nil, &bad); got != nil {
			t.Fatalf("AppendRequestFrame(nil, %+v) = %v on ErrRange, want nil", bad, got)
		}
		buf := append(make([]byte, 0, 8), "keep"...)
		if got, _ := AppendRequestFrame(buf, &bad); string(got) != "keep" || cap(got) != 8 || &got[0] != &buf[0] {
			t.Fatalf("AppendRequestFrame(buf, %+v) = %q (cap %d) on ErrRange, want buf unchanged", bad, got, cap(got))
		}
	}
}

func TestFrameDecisionRoundTrip(t *testing.T) {
	cases := []Decision{
		{ID: 1, Slot: 1, Admitted: true, Reason: ReasonNone},
		{ID: 1 << 40, Slot: 9999, Admitted: false, Reason: ReasonDeclined},
		{ID: 0, Slot: 0, Admitted: false, Reason: ReasonQueueFull},
	}
	var buf []byte
	for _, want := range cases {
		buf = AppendDecisionFrame(buf[:0], &want)
		fr := NewFrameReader(bytes.NewReader(buf))
		typ, payload, err := fr.Next()
		if err != nil || typ != FrameDecision {
			t.Fatalf("Next() = (%#x, _, %v)", typ, err)
		}
		var got Decision
		if err := DecodeDecision(payload, &got); err != nil {
			t.Fatalf("DecodeDecision: %v", err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

func TestFrameErrorRoundTrip(t *testing.T) {
	buf := AppendErrorFrame(nil, 503, ReasonClosed, "engine has shut down")
	fr := NewFrameReader(bytes.NewReader(buf))
	typ, payload, err := fr.Next()
	if err != nil || typ != FrameError {
		t.Fatalf("Next() = (%#x, _, %v)", typ, err)
	}
	code, reason, detail, err := DecodeError(payload)
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if code != 503 || reason != ReasonClosed || string(detail) != "engine has shut down" {
		t.Fatalf("DecodeError = (%d, %v, %q)", code, reason, detail)
	}
}

func TestPreamble(t *testing.T) {
	if err := ReadPreamble(bytes.NewReader(AppendPreamble(nil))); err != nil {
		t.Fatalf("good preamble: %v", err)
	}
	if err := ReadPreamble(strings.NewReader("JUNK\x01")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v, want ErrBadMagic", err)
	}
	if err := ReadPreamble(strings.NewReader("RVNF\x07")); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version err = %v, want ErrBadVersion", err)
	}
	if err := ReadPreamble(strings.NewReader("RV")); err == nil {
		t.Fatal("short preamble accepted")
	}
}

func TestFrameReaderMalformed(t *testing.T) {
	// Length below the minimum.
	hdr := []byte{0, 0, 0, 0, FrameRequest}
	if _, _, err := NewFrameReader(bytes.NewReader(hdr)).Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero length err = %v, want ErrBadFrame", err)
	}
	// Length above MaxFrameSize.
	hdr = []byte{0xff, 0xff, 0xff, 0xff, FrameRequest}
	if _, _, err := NewFrameReader(bytes.NewReader(hdr)).Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("huge length err = %v, want ErrBadFrame", err)
	}
	// Truncated payload.
	buf, _ := AppendRequestFrame(nil, &testRequests[0])
	if _, _, err := NewFrameReader(bytes.NewReader(buf[:len(buf)-3])).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Wrong payload size for the type.
	var req Request
	if err := DecodeRequest(make([]byte, 5), &req); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short request payload err = %v, want ErrBadPayload", err)
	}
	var d Decision
	if err := DecodeDecision(make([]byte, 40), &d); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("long decision payload err = %v, want ErrBadPayload", err)
	}
	if _, _, _, err := DecodeError([]byte{1, 2}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short error payload err = %v, want ErrBadPayload", err)
	}
}

func TestNDJSONRequestRoundTrip(t *testing.T) {
	var buf []byte
	for _, want := range testRequests {
		buf = AppendNDJSONRequest(buf[:0], &want)
		var got Request
		if err := DecodeNDJSONRequest(buf, &got); err != nil {
			t.Fatalf("DecodeNDJSONRequest(%q): %v", buf, err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

// TestNDJSONRequestPastHint round-trips a line longer than the room the
// encoder reserves: integers at the decoder's bound (as many digits as
// uint32's maximum, which is over it), floats at 17 significant digits and
// a scheme pin. The reservation is a hint, never a cap.
func TestNDJSONRequestPastHint(t *testing.T) {
	want := Request{VNF: maxWireInt, Arrival: maxWireInt, Duration: maxWireInt,
		Reliability: 0.30000000000000004, Payment: math.Nextafter(1e6, 2e6), Scheme: "offsite"}
	for _, f := range []float64{want.Reliability, want.Payment} {
		m, _, _ := strings.Cut(strconv.FormatFloat(f, 'e', -1, 64), "e")
		if digits := len(m) - strings.Count(m, "."); digits != 17 {
			t.Fatalf("%v has %d significant digits, want 17", f, digits)
		}
	}
	line := AppendNDJSONRequest(nil, &want)
	if len(line) <= ndjsonRequestHint {
		t.Fatalf("line %q is %d B, want longer than the %d B reserved", line, len(line), ndjsonRequestHint)
	}
	var got Request
	if err := DecodeNDJSONRequest(line, &got); err != nil {
		t.Fatalf("DecodeNDJSONRequest(%q): %v", line, err)
	}
	if got != want || math.Float64bits(got.Reliability) != math.Float64bits(want.Reliability) ||
		math.Float64bits(got.Payment) != math.Float64bits(want.Payment) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

// decodeLikeHTTP decodes a request body the way the HTTP handler does —
// json.Decoder with DisallowUnknownFields into serve.AdmissionRequest's
// fields — with the scheme resolved as the engine resolves it.
func decodeLikeHTTP(line []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var dto struct {
		VNF         int     `json:"vnf"`
		Reliability float64 `json:"reliability"`
		Arrival     int     `json:"arrival"`
		Duration    int     `json:"duration"`
		Payment     float64 `json:"payment"`
		Scheme      string  `json:"scheme"`
	}
	if err := dec.Decode(&dto); err != nil {
		return Request{}, err
	}
	req := Request{VNF: dto.VNF, Reliability: dto.Reliability,
		Arrival: dto.Arrival, Duration: dto.Duration, Payment: dto.Payment}
	if dto.Scheme != "" {
		s, err := core.ParseScheme(dto.Scheme)
		if err != nil {
			return Request{}, err
		}
		req.Scheme = s.Flag()
	}
	return req, nil
}

// sameRequest compares two requests with their floats bit for bit.
func sameRequest(a, b Request) bool {
	return a.VNF == b.VNF && a.Arrival == b.Arrival && a.Duration == b.Duration && a.Scheme == b.Scheme &&
		math.Float64bits(a.Reliability) == math.Float64bits(b.Reliability) &&
		math.Float64bits(a.Payment) == math.Float64bits(b.Payment)
}

// TestNDJSONMatchesEncodingJSON pins the hand-rolled parser to the
// semantics of the HTTP handler's json.Decoder on the same bodies: both
// must produce identical field values, which is what makes streamed and
// POSTed decisions bit-identical.
func TestNDJSONMatchesEncodingJSON(t *testing.T) {
	lines := []string{
		`{"vnf":3,"reliability":0.95,"arrival":0,"duration":5,"payment":12.5}`,
		`{"vnf":1,"duration":2,"payment":3}`,
		`{ "payment" : 7.25 , "vnf" : 2 , "duration" : 4 , "reliability" : 0.875 }`,
		`{"reliability":9.5e-1,"vnf":3,"duration":1,"payment":1e2}`,
		`{"reliability":-0,"payment":-0.0e+5,"vnf":0,"duration":1,"scheme":"off-site"}`,
		`{"reliability":0.9000000000000000222,"payment":123456789012345678901234567890}`,
		`{}`,
	}
	for _, line := range lines {
		var got Request
		if err := DecodeNDJSONRequest([]byte(line), &got); err != nil {
			t.Fatalf("DecodeNDJSONRequest(%q): %v", line, err)
		}
		want, err := decodeLikeHTTP([]byte(line))
		if err != nil {
			t.Fatalf("encoding/json(%q): %v", line, err)
		}
		if !sameRequest(got, want) {
			t.Fatalf("DecodeNDJSONRequest(%q) = %+v, encoding/json = %+v", line, got, want)
		}
	}
}

// TestNDJSONNumberGrammar: a number the HTTP handler's json.Decoder
// refuses, the stream refuses too — strconv.ParseFloat alone takes most
// of these.
func TestNDJSONNumberGrammar(t *testing.T) {
	for _, line := range []string{
		`{"reliability":+0.95}`, `{"reliability":.5}`, `{"reliability":5.}`,
		`{"reliability":01}`, `{"reliability":1.e5}`, `{"reliability":-.5}`,
		`{"reliability":-}`, `{"reliability":1e}`, `{"reliability":1e+}`,
		`{"reliability":0x10}`, `{"reliability":1_0}`, `{"reliability":Inf}`,
		`{"reliability":NaN}`, `{"reliability":--1}`, `{"reliability":1.5.3}`,
		`{"payment":00.5}`, `{"payment":1E}`, `{"vnf":01}`, `{"vnf":+1}`, `{"duration":-01}`,
	} {
		if _, err := decodeLikeHTTP([]byte(line)); err == nil {
			t.Fatalf("encoding/json accepts %q", line)
		}
		var req Request
		if err := DecodeNDJSONRequest([]byte(line), &req); !errors.Is(err, ErrBadJSON) {
			t.Fatalf("DecodeNDJSONRequest(%q) err = %v, want ErrBadJSON", line, err)
		}
	}
}

func TestNDJSONRequestMalformed(t *testing.T) {
	cases := []struct {
		line string
		want error
	}{
		{``, ErrBadJSON},
		{`[1,2]`, ErrBadJSON},
		{`{"vnf":3`, ErrBadJSON},
		{`{"vnf":}`, ErrBadJSON},
		{`{"vnf":3,}`, ErrBadJSON},
		{`{"vnf":"3"}`, ErrBadJSON},
		{`{"vnf":3}{"vnf":4}`, ErrBadJSON},
		{`{"vnf":-1}`, ErrBadJSON},
		{`{"vnf":99999999999999999999}`, ErrBadJSON},
		{`{"reliability":0..5}`, ErrBadJSON},
		{`{"bogus":1}`, ErrUnknownField},
		{`{"vnf\n":1}`, ErrBadJSON},
	}
	for _, tc := range cases {
		var req Request
		if err := DecodeNDJSONRequest([]byte(tc.line), &req); !errors.Is(err, tc.want) {
			t.Fatalf("DecodeNDJSONRequest(%q) err = %v, want %v", tc.line, err, tc.want)
		}
	}
}

func TestNDJSONDecisionRoundTrip(t *testing.T) {
	cases := []Decision{
		{ID: 1, Slot: 1, Admitted: true},
		{ID: 7, Slot: 3, Admitted: false, Reason: ReasonDeclined},
		{ID: 8, Slot: 12, Admitted: false, Reason: ReasonQueueFull},
	}
	var buf []byte
	for _, want := range cases {
		buf = AppendNDJSONDecision(buf[:0], &want)
		// The line must be valid JSON with the HTTP response's field names.
		var js map[string]any
		if err := json.Unmarshal(buf, &js); err != nil {
			t.Fatalf("decision line %q is not JSON: %v", buf, err)
		}
		var got Decision
		if err := DecodeNDJSONDecision(buf, &got); err != nil {
			t.Fatalf("DecodeNDJSONDecision(%q): %v", buf, err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

// TestNDJSONDecisionIDRange round-trips decision IDs over the whole uint64
// range a frame decision carries, 2^64−1's twenty digits included, and
// refuses 2^64, in a message that does not call the line a request.
func TestNDJSONDecisionIDRange(t *testing.T) {
	for _, id := range []uint64{0, 1 << 31, 1<<31 + 1, 1<<53 + 1, math.MaxUint64} {
		want := Decision{ID: id, Slot: 4, Admitted: true}
		line := AppendNDJSONDecision(nil, &want)
		var got Decision
		if err := DecodeNDJSONDecision(line, &got); err != nil || got != want {
			t.Fatalf("DecodeNDJSONDecision(%q) = %+v, %v; want %+v", line, got, err, want)
		}
	}
	for _, line := range []string{
		`{"id":18446744073709551616,"admitted":true,"slot":1}`,
		`{"id":99999999999999999999,"admitted":true,"slot":1}`,
		`{"id":-1,"admitted":true,"slot":1}`,
		`{"id":1e3,"admitted":true,"slot":1}`,
	} {
		var d Decision
		err := DecodeNDJSONDecision([]byte(line), &d)
		if !errors.Is(err, ErrBadJSON) || strings.Contains(err.Error(), "request") {
			t.Fatalf("DecodeNDJSONDecision(%q) err = %v, want ErrBadJSON naming no request", line, err)
		}
	}
}

// TestRequestRangeAgrees holds the two codecs to one integer range: a
// request with each integer field at a boundary of [0, 2^32) decodes to the
// same Request from its frame and from its NDJSON line, and 2^32 is
// refused by both — the frame encoder with ErrRange, the NDJSON decoder
// with ErrBadJSON.
func TestRequestRangeAgrees(t *testing.T) {
	for _, v := range []int{0, 1 << 31, 1<<31 + 1, 1<<32 - 1, 1 << 32} {
		for field := 0; field < 3; field++ {
			want := Request{VNF: 2, Arrival: 3, Duration: 4, Reliability: 0.9, Payment: 7.5}
			*[]*int{&want.VNF, &want.Arrival, &want.Duration}[field] = v
			frame, ferr := AppendRequestFrame(nil, &want)
			var fromLine Request
			lerr := DecodeNDJSONRequest(AppendNDJSONRequest(nil, &want), &fromLine)
			if v == 1<<32 {
				if !errors.Is(ferr, ErrRange) || !errors.Is(lerr, ErrBadJSON) {
					t.Fatalf("%+v: frame err %v, NDJSON err %v; want ErrRange and ErrBadJSON", want, ferr, lerr)
				}
				continue
			}
			if ferr != nil || lerr != nil {
				t.Fatalf("%+v: frame err %v, NDJSON err %v", want, ferr, lerr)
			}
			_, payload, _, err := SplitFrame(frame)
			var fromFrame Request
			if err == nil {
				err = DecodeRequest(payload, &fromFrame)
			}
			if err != nil || fromFrame != want || fromLine != want {
				t.Fatalf("%+v: frame decodes to %+v (%v), NDJSON line to %+v", want, fromFrame, err, fromLine)
			}
		}
	}
}

func TestNDJSONErrorLine(t *testing.T) {
	buf := AppendNDJSONError(nil, 503, ReasonQueueFull, "admission queue full")
	var js struct {
		Error struct {
			Code   int    `json:"code"`
			Reason string `json:"reason"`
			Detail string `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(buf, &js); err != nil {
		t.Fatalf("error line %q is not JSON: %v", buf, err)
	}
	if js.Error.Code != 503 || js.Error.Reason != "queue-full" || js.Error.Detail != "admission queue full" {
		t.Fatalf("error line = %+v", js.Error)
	}
}

// TestNDJSONErrorLineEscapes: a detail quoting refused bytes — quotes,
// backslashes, control bytes — still gives an error line that is one JSON
// object carrying the detail.
func TestNDJSONErrorLineEscapes(t *testing.T) {
	var req Request
	detail := DecodeNDJSONRequest([]byte(`{"payment":9e999}`), &req).Error()
	for _, d := range []string{detail, `unknown field "\x01"`, "tab\tnul\x00us\x1f\"", ""} {
		buf := AppendNDJSONError(nil, 400, ReasonInvalid, d)
		var js struct {
			Error struct{ Detail string } `json:"error"`
		}
		if err := json.Unmarshal(buf, &js); err != nil || js.Error.Detail != d || bytes.Count(buf, []byte("\n")) != 1 {
			t.Fatalf("error line %q for detail %q: %v, read back %q", buf, d, err, js.Error.Detail)
		}
	}
}

func TestReasonCodeTable(t *testing.T) {
	for _, r := range []trace.Reason{
		trace.ReasonInvalid, trace.ReasonStale, trace.ReasonHorizon,
		trace.ReasonDeclined, trace.ReasonOverbooked, trace.ReasonConflict,
		trace.ReasonQueueFull, trace.ReasonClosed, trace.ReasonCanceled,
		trace.ReasonNotFound, trace.ReasonInternal,
	} {
		c := CodeForReason(string(r))
		if c == ReasonNone || c == ReasonUnknown {
			t.Fatalf("CodeForReason(%q) = %v", r, c)
		}
		if back := c.Reason(); back != string(r) {
			t.Fatalf("Reason(%v) = %q, want %q", c, back, r)
		}
	}
	if CodeForReason("") != ReasonNone {
		t.Fatal("empty reason must map to ReasonNone")
	}
	if CodeForReason("martian") != ReasonUnknown {
		t.Fatal("unknown reason must map to ReasonUnknown")
	}
	if ReasonNone.Reason() != "" {
		t.Fatal("ReasonNone must map to empty string")
	}
	if ReasonCode(200).Reason() != "unknown" {
		t.Fatal("unmapped code must read as unknown")
	}
}

// TestDecodeAllocs is the allocation-regression gate for the ingest hot
// path: neither request decoder allocates, NDJSON included — on the
// benchmark pool's 16–17-digit floats as on short ones.
func TestDecodeAllocs(t *testing.T) {
	framed, err := AppendRequestFrame(nil, &testRequests[0])
	if err != nil {
		t.Fatal(err)
	}
	payload := framed[headerSize:]
	var req Request
	if n := testing.AllocsPerRun(1000, func() {
		if err := DecodeRequest(payload, &req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeRequest allocates %.1f/op, want 0", n)
	}

	pool := poolRequests(t, 1, 1)[0]
	for _, r := range []Request{testRequests[0], pool} {
		line := AppendNDJSONRequest(nil, &r)
		if n := testing.AllocsPerRun(1000, func() {
			if err := DecodeNDJSONRequest(line, &req); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("DecodeNDJSONRequest(%q) allocates %.1f/op, want 0", line, n)
		}
	}

	// The encoders must not allocate once the buffer has grown.
	d := Decision{ID: 42, Slot: 7, Admitted: false, Reason: ReasonDeclined}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendDecisionFrame(buf[:0], &d)
		buf = AppendNDJSONDecision(buf[:0], &d)
	}); n != 0 {
		t.Fatalf("decision encoders allocate %.1f/op, want 0", n)
	}
}

// TestEncodeRequestAllocs pins the request encoders' one-growth contract:
// from a nil buffer each allocates once, whatever the line's length within
// the reserved room, and into a buffer with room not at all.
func TestEncodeRequestAllocs(t *testing.T) {
	pool := poolRequests(t, 1, 1)[0]
	room := make([]byte, 0, 256)
	for _, r := range []Request{testRequests[0], pool} {
		for _, c := range []struct {
			name string
			buf  []byte
			want float64
		}{{"nil buffer", nil, 1}, {"buffer with room", room, 0}} {
			if n := testing.AllocsPerRun(1000, func() {
				if _, err := AppendRequestFrame(c.buf, &r); err != nil {
					t.Fatal(err)
				}
			}); n != c.want {
				t.Errorf("AppendRequestFrame(%s, %+v) allocates %.1f/op, want %v", c.name, r, n, c.want)
			}
			if n := testing.AllocsPerRun(1000, func() {
				_ = AppendNDJSONRequest(c.buf, &r)
			}); n != c.want {
				t.Errorf("AppendNDJSONRequest(%s, %+v) allocates %.1f/op, want %v", c.name, r, n, c.want)
			}
		}
	}
}

// TestNDJSONRequestPoolBytes: on the benchmark's request pools (20 000
// requests, seeds 1–3) AppendNDJSONRequest writes the bytes of an encoder
// that formats its floats with strconv.AppendFloat(…, 'g', -1, 64).
func TestNDJSONRequestPoolBytes(t *testing.T) {
	ref := func(buf []byte, r *Request) []byte {
		buf = strconv.AppendInt(append(buf, `{"vnf":`...), int64(r.VNF), 10)
		buf = strconv.AppendFloat(append(buf, `,"reliability":`...), r.Reliability, 'g', -1, 64)
		buf = strconv.AppendInt(append(buf, `,"arrival":`...), int64(r.Arrival), 10)
		buf = strconv.AppendInt(append(buf, `,"duration":`...), int64(r.Duration), 10)
		buf = strconv.AppendFloat(append(buf, `,"payment":`...), r.Payment, 'g', -1, 64)
		return append(buf, '}', '\n')
	}
	var got, want []byte
	for seed := int64(1); seed <= 3; seed++ {
		for i, r := range poolRequests(t, 20_000, seed) {
			if got, want = AppendNDJSONRequest(got[:0], &r), ref(want[:0], &r); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, request %d: %q, want %q", seed, i, got, want)
			}
		}
	}
}

// TestFrameReaderReusesBuffer pins the zero-copy contract: consecutive
// frames that fit the existing buffer must return the same backing array.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var stream []byte
	var err error
	for i := range testRequests {
		stream, err = AppendRequestFrame(stream, &testRequests[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	var first []byte
	for i := range testRequests {
		_, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 0 {
			first = payload
		} else if &payload[0] != &first[0] {
			t.Fatal("payload buffer was reallocated between equal-size frames")
		}
	}
}

// TestFrameRequestSchemeRoundTrip pins the v2 frame layout: a trailing
// scheme byte carries the optional scheme pin, zero meaning none.
func TestFrameRequestSchemeRoundTrip(t *testing.T) {
	for _, pin := range []string{"", "onsite", "offsite", "shared"} {
		want := Request{VNF: 2, Arrival: 3, Duration: 4, Reliability: 0.9, Payment: 5, Scheme: pin}
		buf, err := AppendRequestFrame(nil, &want)
		if err != nil {
			t.Fatalf("AppendRequestFrame(scheme=%q): %v", pin, err)
		}
		if got := len(buf); got != headerSize+requestPayloadSize {
			t.Fatalf("scheme %q frame is %d bytes, want %d", pin, got, headerSize+requestPayloadSize)
		}
		typ, payload, err := NewFrameReader(bytes.NewReader(buf)).Next()
		if err != nil || typ != FrameRequest {
			t.Fatalf("Next() = (%#x, _, %v)", typ, err)
		}
		var got Request
		if err := DecodeRequest(payload, &got); err != nil {
			t.Fatalf("DecodeRequest(scheme=%q): %v", pin, err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}

	// A pin the registry does not know fails on encode, not on the peer.
	bad := Request{Duration: 1, Scheme: "raid1"}
	if _, err := AppendRequestFrame(nil, &bad); !errors.Is(err, ErrRange) {
		t.Fatalf("unknown scheme encode err = %v, want ErrRange", err)
	}
}

// TestFrameRequestV1Compat ensures a v1 peer is refused — its preamble
// and its 28-byte request payload, which has no scheme byte — and a
// corrupt scheme byte is rejected.
func TestFrameRequestV1Compat(t *testing.T) {
	if err := ReadPreamble(strings.NewReader(Magic + "\x01")); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v1 preamble err = %v, want ErrBadVersion", err)
	}
	full := Request{VNF: 1, Arrival: 2, Duration: 3, Reliability: 0.5, Payment: 6, Scheme: "shared"}
	buf, err := AppendRequestFrame(nil, &full)
	if err != nil {
		t.Fatal(err)
	}
	payload := buf[headerSize:]

	var got Request
	if err := DecodeRequest(payload[:requestPayloadSize-1], &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("v1 payload err = %v, want ErrBadPayload", err)
	}

	payload[28] = 99
	if err := DecodeRequest(payload, &got); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("corrupt scheme byte err = %v, want ErrBadPayload", err)
	}
}

func TestNDJSONRequestScheme(t *testing.T) {
	for _, pin := range []string{"", "onsite", "offsite", "shared"} {
		want := Request{VNF: 1, Duration: 2, Payment: 3, Scheme: pin}
		buf := AppendNDJSONRequest(nil, &want)
		if pin == "" && bytes.Contains(buf, []byte("scheme")) {
			t.Fatalf("empty pin must be omitted from %q", buf)
		}
		var got Request
		if err := DecodeNDJSONRequest(buf, &got); err != nil {
			t.Fatalf("DecodeNDJSONRequest(%q): %v", buf, err)
		}
		if got != want {
			t.Fatalf("round trip(%q) = %+v, want %+v", buf, got, want)
		}
	}
	var got Request
	err := DecodeNDJSONRequest([]byte(`{"duration":1,"scheme":"raid1"}`), &got)
	if !errors.Is(err, ErrBadJSON) {
		t.Fatalf("unknown scheme decode err = %v, want ErrBadJSON", err)
	}
}

// BenchmarkAppendRequest encodes requests drawn as the benchmark's pool is
// into a nil buffer, as the pool's pre-encoding does: the per-request
// set-up cost of each codec, allocation included.
func BenchmarkAppendRequest(b *testing.B) {
	const n = 1024
	reqs := poolRequests(b, n, 1)
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if benchLine, err = AppendRequestFrame(nil, &reqs[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ndjson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchLine = AppendNDJSONRequest(nil, &reqs[i%n])
		}
	})
}

// benchLine keeps BenchmarkAppendRequest's output live.
var benchLine []byte

// BenchmarkDecodeNDJSONRequest decodes lines shaped like the benchmark
// pool's: AppendNDJSONRequest of requests drawn as the pool draws them,
// reliability and payment as 16–17-digit shortest-form floats.
func BenchmarkDecodeNDJSONRequest(b *testing.B) {
	const n = 1024
	var lines [][]byte
	for _, r := range poolRequests(b, n, 1) {
		lines = append(lines, AppendNDJSONRequest(nil, &r))
	}
	var req Request
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeNDJSONRequest(lines[i%n], &req); err != nil {
			b.Fatal(err)
		}
	}
}
