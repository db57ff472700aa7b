package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"revnf/internal/core"
)

// splitAgreesWithReader checks SplitFrame against FrameReader.Next on the
// same bytes: the same type and payload when the frame is whole, and the
// same class of error when it is not — bad length; cut short, which a
// stream reader sees as io.EOF at a frame boundary and as
// io.ErrUnexpectedEOF inside a frame.
func splitAgreesWithReader(t *testing.T, data []byte) {
	t.Helper()
	typ, payload, n, err := SplitFrame(data)
	rtyp, rpayload, rerr := NewFrameReader(bytes.NewReader(data)).Next()
	switch {
	case err == nil:
		if rerr != nil || rtyp != typ || !bytes.Equal(rpayload, payload) || n != headerSize+len(payload) || n > len(data) {
			t.Fatalf("%d bytes: SplitFrame = (%#x, %d-byte payload, n %d), Next = (%#x, %d-byte payload, %v)",
				len(data), typ, len(payload), n, rtyp, len(rpayload), rerr)
		}
	case errors.Is(err, ErrBadFrame):
		if !errors.Is(rerr, ErrBadFrame) {
			t.Fatalf("%d bytes: SplitFrame says %v, Next says %v", len(data), err, rerr)
		}
	case errors.Is(err, ErrShortFrame):
		want := io.ErrUnexpectedEOF
		if len(data) == 0 {
			want = io.EOF
		}
		if !errors.Is(rerr, want) || n <= len(data) || payload != nil {
			t.Fatalf("%d bytes: SplitFrame = (n %d, %v), Next says %v, want %v", len(data), n, err, rerr, want)
		}
	default:
		t.Fatalf("SplitFrame: untyped error %v", err)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame splitter, the
// frame reader and the per-type payload decoders. The contract under
// fuzzing: typed errors or valid frames, never a panic, never an over-read
// past the input, bounded buffering regardless of what the length prefix
// claims, and a splitter and a reader that agree wherever the input is cut.
func FuzzDecodeFrame(f *testing.F) {
	seed, _ := AppendRequestFrame(nil, &Request{VNF: 3, Duration: 5, Reliability: 0.95, Payment: 12.5})
	f.Add(seed)
	f.Add(AppendDecisionFrame(nil, &Decision{ID: 9, Slot: 2, Admitted: true}))
	f.Add(AppendErrorFrame(nil, 503, ReasonClosed, "shutting down"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, FrameRequest})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every truncation point of a short input; of a long one the first
		// and last 64, which cover the header and, where one frame fills the
		// input, that frame's end.
		for k := 0; k <= len(data); k++ {
			if k > 64 && k < len(data)-64 {
				k = len(data) - 64
			}
			splitAgreesWithReader(t, data[:k])
		}
		fr := NewFrameReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded: each frame consumes ≥ headerSize bytes
			typ, payload, err := fr.Next()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
					errors.Is(err, ErrBadFrame) {
					return
				}
				t.Fatalf("Next: untyped error %v", err)
			}
			if len(payload) > MaxFrameSize {
				t.Fatalf("payload %d bytes exceeds MaxFrameSize", len(payload))
			}
			switch typ {
			case FrameRequest:
				var req Request
				if err := DecodeRequest(payload, &req); err != nil && !errors.Is(err, ErrBadPayload) {
					t.Fatalf("DecodeRequest: untyped error %v", err)
				}
			case FrameDecision:
				var d Decision
				if err := DecodeDecision(payload, &d); err != nil && !errors.Is(err, ErrBadPayload) {
					t.Fatalf("DecodeDecision: untyped error %v", err)
				}
			case FrameError:
				if _, _, _, err := DecodeError(payload); err != nil && !errors.Is(err, ErrBadPayload) {
					t.Fatalf("DecodeError: untyped error %v", err)
				}
			}
		}
	})
}

// FuzzDecodeNDJSON fuzzes both NDJSON line parsers. Every outcome must be
// a clean decode or a typed error — no panics — and a request line the
// stream accepts, the HTTP handler's json.Decoder accepts into the same
// values, floats to the bit, and it survives a re-encode/re-decode round
// trip. Not the converse: the stream is stricter on purpose (no escapes,
// exact-case keys, no trailing values, integers without sign or exponent).
func FuzzDecodeNDJSON(f *testing.F) {
	f.Add([]byte(`{"vnf":3,"reliability":0.95,"arrival":0,"duration":5,"payment":12.5}`))
	f.Add([]byte(`{"id":1,"admitted":true,"slot":1}`))
	f.Add([]byte(`{"id":2,"admitted":false,"reason":"declined","slot":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"vnf":`))
	f.Add([]byte(`{"reliability":1e309}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"reliability":+0.95,"payment":.5}`))
	f.Add([]byte(`{"vnf":01,"scheme":"shared","payment":9007199254740993}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if err := DecodeNDJSONRequest(line, &req); err != nil {
			if !errors.Is(err, ErrBadJSON) && !errors.Is(err, ErrUnknownField) {
				t.Fatalf("DecodeNDJSONRequest: untyped error %v", err)
			}
		} else {
			if want, err := decodeLikeHTTP(line); err != nil {
				t.Fatalf("stream accepts %q as %+v, encoding/json refuses it: %v", line, req, err)
			} else if !sameRequest(req, want) {
				t.Fatalf("%q: stream reads %+v, encoding/json %+v", line, req, want)
			}
			var again Request
			if err := DecodeNDJSONRequest(AppendNDJSONRequest(nil, &req), &again); err != nil {
				t.Fatalf("re-decode of re-encoded %+v: %v", req, err)
			} else if !sameRequest(again, req) {
				t.Fatalf("round trip %+v != %+v", again, req)
			}
		}
		var d Decision
		if err := DecodeNDJSONDecision(line, &d); err != nil {
			if !errors.Is(err, ErrBadJSON) && !errors.Is(err, ErrUnknownField) {
				t.Fatalf("DecodeNDJSONDecision: untyped error %v", err)
			}
		}
	})
}

// FuzzRequestRoundTrip holds the two codecs to one request: any request
// AppendRequestFrame accepts, with finite floats, decodes to the same fields
// — floats by bit pattern, the scheme in its flag spelling — from its frame
// and from its NDJSON line.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(3, 0, 5, 0.95, 12.5, "")
	f.Add(1<<31+1, 1<<32-1, 0, -0.0, 5e-324, "on-site")
	f.Add(0, 1, 1, 0.30000000000000004, 1.7976931348623157e308, "shared")
	f.Fuzz(func(t *testing.T, vnf, arrival, duration int, reliability, payment float64, scheme string) {
		req := Request{VNF: vnf, Arrival: arrival, Duration: duration, Reliability: reliability, Payment: payment, Scheme: scheme}
		frame, err := AppendRequestFrame(nil, &req)
		if err != nil || math.IsInf(reliability, 0) || math.IsNaN(reliability) || math.IsInf(payment, 0) || math.IsNaN(payment) {
			return
		}
		if scheme != "" {
			s, _ := core.ParseScheme(scheme)
			req.Scheme = s.Flag()
		}
		var fromFrame, fromLine Request
		_, payload, _, err := SplitFrame(frame)
		if err == nil {
			err = DecodeRequest(payload, &fromFrame)
		}
		if err != nil || !sameRequest(fromFrame, req) {
			t.Fatalf("%+v: frame decodes to %+v, %v", req, fromFrame, err)
		}
		line := AppendNDJSONRequest(nil, &Request{VNF: vnf, Arrival: arrival, Duration: duration,
			Reliability: reliability, Payment: payment, Scheme: scheme})
		if err := DecodeNDJSONRequest(line, &fromLine); err != nil || !sameRequest(fromLine, req) {
			t.Fatalf("%+v: NDJSON line %q decodes to %+v, %v", req, line, fromLine, err)
		}
	})
}
