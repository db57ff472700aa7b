// Package wire implements the streaming admission protocols the daemon
// serves on its persistent-connection listener: newline-delimited JSON
// (self-describing, debuggable with netcat) and a compact length-prefixed
// binary framing (the fast path). Both carry the same request/decision
// schema as the HTTP/JSON API, so a request stream produces bit-identical
// decisions regardless of ingress protocol — the serve layer's golden
// tests pin this.
//
// # Hot-path contract
//
// The decoders are built for the ingest hot path:
//
//   - DecodeRequest (binary frame) and DecodeNDJSONRequest perform zero
//     heap allocations per request;
//   - the Append* encoders write into caller-provided buffers and
//     allocate only to grow them, the request encoders at most once.
//
// Allocation budgets are enforced by testing.AllocsPerRun regression
// tests, and both decoders are fuzzed: malformed input must yield a typed
// error (ErrBadFrame, ErrBadPayload, ErrBadJSON, ...), never a panic or
// an over-read.
//
// # Reason codes
//
// Decisions and errors carry a one-byte ReasonCode mirroring the
// trace.Reason vocabulary, so the binary protocol does not ship strings
// per decision. CodeForReason / ReasonCode.Reason convert at the edges.
package wire

import (
	"math"

	"revnf/internal/trace"
)

// maxWireInt bounds a request's integer fields (VNF, arrival, duration) on
// both protocols: a frame carries each as a u32, and the NDJSON decoder
// refuses anything larger or negative, so a request one encoder takes
// decodes to the same fields from either encoding.
const maxWireInt = math.MaxUint32

// Request is one admission request on the wire. It has the serve layer's
// AdmissionRequest fields in the same order, so the serve layer converts
// one to the other (AdmissionRequest(r)) and streamed and HTTP-posted
// requests decode to the same values.
type Request struct {
	VNF         int
	Reliability float64
	Arrival     int
	Duration    int
	Payment     float64
	// Scheme optionally pins the redundancy scheme the request demands
	// (canonical flag spelling, e.g. "shared"); empty accepts whatever the
	// daemon runs. On the binary framing it travels as a one-byte
	// core.Scheme value.
	Scheme string
}

// Decision is one admission decision on the wire.
type Decision struct {
	ID       uint64
	Slot     int
	Admitted bool
	Reason   ReasonCode
}

// ReasonCode is the one-byte wire encoding of an engine-level
// trace.Reason. Zero means "no reason" (an admitted decision).
type ReasonCode uint8

// Engine-level reason codes. The numbering is part of the wire protocol;
// append only.
const (
	ReasonNone       ReasonCode = 0
	ReasonInvalid    ReasonCode = 1
	ReasonStale      ReasonCode = 2
	ReasonHorizon    ReasonCode = 3
	ReasonDeclined   ReasonCode = 4
	ReasonOverbooked ReasonCode = 5
	ReasonConflict   ReasonCode = 6
	ReasonQueueFull  ReasonCode = 7
	ReasonClosed     ReasonCode = 8
	ReasonCanceled   ReasonCode = 9
	ReasonNotFound   ReasonCode = 10
	ReasonInternal   ReasonCode = 11
	// ReasonSchemeUnavailable marks requests pinning a scheme the daemon
	// does not run.
	ReasonSchemeUnavailable ReasonCode = 12
	// ReasonUnknown transports a reason string minted after this protocol
	// revision; receivers should treat it as an unspecified rejection.
	ReasonUnknown ReasonCode = 255
)

var codeToReason = map[ReasonCode]trace.Reason{
	ReasonInvalid:    trace.ReasonInvalid,
	ReasonStale:      trace.ReasonStale,
	ReasonHorizon:    trace.ReasonHorizon,
	ReasonDeclined:   trace.ReasonDeclined,
	ReasonOverbooked: trace.ReasonOverbooked,
	ReasonConflict:   trace.ReasonConflict,
	ReasonQueueFull:  trace.ReasonQueueFull,
	ReasonClosed:     trace.ReasonClosed,
	ReasonCanceled:   trace.ReasonCanceled,
	ReasonNotFound:   trace.ReasonNotFound,
	ReasonInternal:   trace.ReasonInternal,

	ReasonSchemeUnavailable: trace.ReasonSchemeUnavailable,
}

// CodeForReason maps a trace.Reason string to its wire code. An empty
// reason maps to ReasonNone; a string outside the engine vocabulary maps
// to ReasonUnknown. A switch on the constants, not a map probe: it runs
// once per decision written.
func CodeForReason(reason string) ReasonCode {
	switch trace.Reason(reason) {
	case "":
		return ReasonNone
	case trace.ReasonInvalid:
		return ReasonInvalid
	case trace.ReasonStale:
		return ReasonStale
	case trace.ReasonHorizon:
		return ReasonHorizon
	case trace.ReasonDeclined:
		return ReasonDeclined
	case trace.ReasonOverbooked:
		return ReasonOverbooked
	case trace.ReasonConflict:
		return ReasonConflict
	case trace.ReasonQueueFull:
		return ReasonQueueFull
	case trace.ReasonClosed:
		return ReasonClosed
	case trace.ReasonCanceled:
		return ReasonCanceled
	case trace.ReasonNotFound:
		return ReasonNotFound
	case trace.ReasonInternal:
		return ReasonInternal
	case trace.ReasonSchemeUnavailable:
		return ReasonSchemeUnavailable
	}
	return ReasonUnknown
}

// Reason returns the canonical trace.Reason string for the code: "" for
// ReasonNone, "unknown" for codes outside the table.
func (c ReasonCode) Reason() string {
	if c == ReasonNone {
		return ""
	}
	if r, ok := codeToReason[c]; ok {
		return string(r)
	}
	return "unknown"
}
