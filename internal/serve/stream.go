package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"runtime/debug"
	"slices"
	"sync"

	"revnf/internal/wire"
)

// StreamServer serves the persistent-connection admission protocols
// defined by internal/wire on top of an Engine: newline-delimited JSON
// and the length-prefixed binary framing. One listener serves both — the
// first byte of a connection selects the protocol ('R' opens the RVNF
// binary preamble; anything else is parsed as NDJSON).
//
// # Pipeline
//
// Each connection is one goroutine that reads a batch, decides it and
// writes its decisions with one conn.Write (there is no write buffer), in
// a loop. A batch closes at maxStreamBatch requests or as soon as the read
// buffer runs dry, so batch size adapts to the offered load (1 at low
// rate, large under saturation) without a flush timer; Engine.SubmitBatch
// decides it under one worker token. The batch's arrays grow to the
// largest batch the connection has seen.
//
// # Ordering and backpressure
//
// Responses are written strictly in request order per connection, and
// SubmitBatch allocates IDs in batch order, so a request stream decided
// over NDJSON, binary frames, or individual HTTP posts yields
// bit-identical decisions (the golden cross-protocol test pins this).
// Backpressure is the unread socket: while a batch is being decided
// nothing is read, and the kernel closes the TCP window. A client that
// does not read its decisions blocks only its own connection's Write,
// which holds no worker token. Engine-level overload surfaces as
// per-request queue-full decisions; engine shutdown as a terminal error
// record (ReasonClosed) after which the connection closes.
type StreamServer struct {
	e *Engine

	mu        sync.Mutex
	listeners map[net.Listener]struct{} // guarded by mu
	conns     map[net.Conn]struct{}     // guarded by mu
	closed    bool                      // guarded by mu
	wg        sync.WaitGroup
}

const (
	// maxStreamBatch caps requests per SubmitBatch call. 256 amortizes the
	// engine synchronization well past the point of diminishing returns
	// while keeping a batch's decisions well under a socket buffer.
	maxStreamBatch = 256
	// streamBufSize sizes the per-connection read buffer and so the longest
	// NDJSON request line, and bounds an HTTP request body too; a batch of
	// 256 frames is 256 × 34 B ≈ 8.7 KB.
	streamBufSize = 16 << 10
)

// NewStreamServer returns a StreamServer over e.
func NewStreamServer(e *Engine) *StreamServer {
	return &StreamServer{
		e:         e,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections from ln until the listener fails or Close is
// called, serving each connection on its own goroutine. It returns nil
// after Close.
func (s *StreamServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for the
// connection goroutines to finish. Safe to call more than once.
func (s *StreamServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// ServeConn serves one already-accepted connection synchronously,
// returning when it closes. Exported so tests can drive the protocol
// over a net.Pipe.
func (s *StreamServer) ServeConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, streamBufSize)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == wire.Magic[0] {
		if err := wire.ReadPreamble(br); err != nil {
			s.e.ingest.streamErrors.Add(1)
			conn.Write(wire.AppendErrorFrame(nil, 400, wire.ReasonInvalid, err.Error()))
			return
		}
		s.e.ingest.frameConns.Add(1)
		s.serveConn(conn, br, frameCodec{})
	} else {
		s.e.ingest.ndjsonConns.Add(1)
		s.serveConn(conn, br, ndjsonCodec{})
	}
}

// streamError is a terminal protocol or engine error: emitted after the
// decisions of the requests read before it, then the connection closes.
type streamError struct {
	code   int
	reason wire.ReasonCode
	detail string
}

func (e *streamError) Error() string { return e.detail }

// invalidStream is the terminal error a malformed request stream earns.
func invalidStream(detail string) error {
	return &streamError{code: 400, reason: wire.ReasonInvalid, detail: detail}
}

// streamCodec is the protocol-specific half of the connection pipeline.
type streamCodec interface {
	// readRequest decodes the next request, reporting io.EOF at a clean
	// end of stream and a *streamError (wrapped) for protocol violations.
	readRequest(br *bufio.Reader, req *wire.Request) error
	// appendDecision takes the decision by value: a pointer passed through
	// an interface method escapes, one allocation per decision.
	appendDecision(buf []byte, d wire.Decision) []byte
	appendError(buf []byte, e *streamError) []byte
	countRequests(e *Engine, n int)
}

// serveConn runs the read, decide, write loop over one connection.
func (s *StreamServer) serveConn(conn net.Conn, br *bufio.Reader, codec streamCodec) {
	var reqs []AdmissionRequest
	var out []AdmissionResult
	var buf []byte
	var wr wire.Request
	// A panicking decision ends its connection, not the daemon: SubmitBatch
	// returned the token on the way up, the log gets value and stack as
	// net/http's does, the peer a terminal error in place of the batch.
	defer func() {
		if p := recover(); p != nil {
			s.e.ingest.streamPanics.Add(1)
			log.Printf("serve: stream: panic deciding a batch: %v\n%s", p, debug.Stack())
			conn.Write(codec.appendError(nil, &streamError{code: 500, reason: wire.ReasonInternal, detail: "a decision panicked"}))
		}
	}()
	for {
		// Close the batch at the cap, or as soon as the socket has nothing
		// more buffered: batch size adapts to the offered load.
		reqs = reqs[:0]
		var err error
		for err == nil && len(reqs) < maxStreamBatch && (len(reqs) == 0 || br.Buffered() > 0) {
			if err = codec.readRequest(br, &wr); err == nil {
				reqs = append(reqs, AdmissionRequest(wr))
			}
		}
		// A protocol violation is answered after the batch's decisions; a
		// clean io.EOF or a transport error (reset, force-close) ends the
		// connection after them with nothing more to send.
		var term *streamError
		errors.As(err, &term)
		if len(reqs) > 0 {
			codec.countRequests(s.e, len(reqs))
			s.e.ingest.observeBatch(len(reqs))
			out = slices.Grow(out[:0], len(reqs))
			res := out[:len(reqs)]
			if serr := s.e.SubmitBatch(context.Background(), reqs, res); serr != nil {
				// ErrClosed (shutdown) is the only error SubmitBatch can
				// return here; report it in place of the batch's decisions.
				term = &streamError{code: 503, reason: wire.ReasonClosed, detail: "engine has shut down"}
				if !errors.Is(serr, ErrClosed) {
					term.reason, term.detail = wire.ReasonInternal, serr.Error()
				}
			} else {
				buf = buf[:0]
				for i := range res {
					buf = codec.appendDecision(buf, wire.Decision{
						ID:       uint64(res[i].ID),
						Slot:     res[i].Slot,
						Admitted: res[i].Admitted,
						Reason:   wire.CodeForReason(res[i].Reason),
					})
				}
				if _, werr := conn.Write(buf); werr != nil {
					return
				}
			}
		}
		if term != nil {
			s.e.ingest.streamErrors.Add(1)
			conn.Write(codec.appendError(buf[:0], term))
			return
		}
		if err != nil {
			return
		}
	}
}

// ndjsonCodec implements streamCodec for newline-delimited JSON.
type ndjsonCodec struct{}

func (ndjsonCodec) readRequest(br *bufio.Reader, req *wire.Request) error {
	for {
		line, err := br.ReadSlice('\n')
		// A final line may lack its newline: io.EOF with bytes to decode.
		if err != nil && (!errors.Is(err, io.EOF) || len(line) == 0) {
			if errors.Is(err, bufio.ErrBufferFull) {
				return invalidStream("request line exceeds buffer")
			}
			return err
		}
		derr := wire.DecodeNDJSONRequest(line, req)
		switch {
		case derr == nil:
			return nil
		case len(bytes.Trim(line, " \t\r\n")) > 0:
			return invalidStream(derr.Error())
		case err != nil:
			return err
		}
		// A blank keep-alive line (failing without allocating): read on.
	}
}

func (ndjsonCodec) appendDecision(buf []byte, d wire.Decision) []byte {
	return wire.AppendNDJSONDecision(buf, &d)
}

func (ndjsonCodec) appendError(buf []byte, e *streamError) []byte {
	return wire.AppendNDJSONError(buf, e.code, e.reason, e.detail)
}

func (ndjsonCodec) countRequests(e *Engine, n int) {
	e.ingest.ndjsonReqs.Add(uint64(n))
}

// frameCodec implements streamCodec for the binary framing.
type frameCodec struct{}

// readRequest decodes the next frame where it lies in the bufio window:
// split what is buffered, block for more only while the frame is short.
// The peeked bytes are valid until the Discard, so the decode comes first.
func (frameCodec) readRequest(br *bufio.Reader, req *wire.Request) error {
	need := br.Buffered()
	for {
		buf, perr := br.Peek(need)
		typ, payload, n, err := wire.SplitFrame(buf)
		switch {
		case err == nil && typ != wire.FrameRequest:
			return invalidStream("unexpected frame type")
		case err == nil:
			err = wire.DecodeRequest(payload, req)
			br.Discard(n)
			if err != nil {
				return invalidStream(err.Error())
			}
			return nil
		case !errors.Is(err, wire.ErrShortFrame) || n > wire.MaxRequestFrame:
			// No request frame is that long: refuse it before waiting for it.
			return invalidStream("bad frame length")
		case errors.Is(perr, io.EOF) && len(buf) > 0:
			// The peer stopped mid-frame but may still be reading.
			return invalidStream("truncated frame")
		case perr != nil:
			return perr // a clean io.EOF at a frame boundary, or the transport's error
		}
		need = max(n, br.Buffered())
	}
}

func (frameCodec) appendDecision(buf []byte, d wire.Decision) []byte {
	return wire.AppendDecisionFrame(buf, &d)
}

func (frameCodec) appendError(buf []byte, e *streamError) []byte {
	return wire.AppendErrorFrame(buf, e.code, e.reason, e.detail)
}

func (frameCodec) countRequests(e *Engine, n int) {
	e.ingest.frameReqs.Add(uint64(n))
}
