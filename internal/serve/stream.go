package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
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
// Each connection runs two goroutines. The reader decodes requests into
// batches — a batch closes at streamBatchSize requests or as soon as the
// socket has no more buffered bytes, so batch size adapts to the offered
// load (1 at low rate, large under saturation) without a flush timer —
// and hands them to the decider over a bounded channel. The decider calls
// Engine.SubmitBatch and writes the decisions back in request order.
//
// # Ordering and backpressure
//
// Responses are written strictly in request order per connection, and
// SubmitBatch allocates IDs in batch order, so a request stream decided
// over NDJSON, binary frames, or individual HTTP posts yields
// bit-identical decisions (the golden cross-protocol test pins this).
// The pending-batch channel is the per-connection backpressure bound:
// when the engine falls behind, the reader blocks and the kernel closes
// the TCP window. Engine-level overload surfaces as per-request
// queue-full decisions; engine shutdown as a terminal error record
// (ReasonClosed) after which the connection closes.
type StreamServer struct {
	e *Engine

	// batchSize caps requests per SubmitBatch call; pending bounds the
	// decoded-but-undecided batches per connection.
	batchSize int
	pending   int

	mu        sync.Mutex
	listeners map[net.Listener]struct{} // guarded by mu
	conns     map[net.Conn]struct{}     // guarded by mu
	closed    bool                      // guarded by mu
	wg        sync.WaitGroup
}

const (
	// streamBatchSize is the default decode-batch cap. 256 amortizes the
	// engine synchronization well past the point of diminishing returns
	// while keeping a batch's decisions well under a socket buffer.
	streamBatchSize = 256
	// streamPendingBatches bounds decoded batches waiting per connection;
	// small by design — the queue is for overlap, not buffering.
	streamPendingBatches = 2
	// streamBufSize sizes the per-connection read and write buffers.
	streamBufSize = 64 << 10
)

// NewStreamServer returns a StreamServer over e.
func NewStreamServer(e *Engine) *StreamServer {
	return &StreamServer{
		e:         e,
		batchSize: streamBatchSize,
		pending:   streamPendingBatches,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections from ln until the listener fails or Close is
// called, serving each connection on its own goroutines. It returns nil
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
	bw := bufio.NewWriterSize(conn, streamBufSize)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == wire.Magic[0] {
		if err := wire.ReadPreamble(br); err != nil {
			s.e.ingest.streamErrors.Add(1)
			buf := wire.AppendErrorFrame(nil, 400, wire.ReasonInvalid, err.Error())
			bw.Write(buf)
			bw.Flush()
			return
		}
		s.e.ingest.frameConns.Add(1)
		s.serveConn(conn, br, bw, frameCodec{})
	} else {
		s.e.ingest.ndjsonConns.Add(1)
		s.serveConn(conn, br, bw, ndjsonCodec{})
	}
}

// streamBatch is one reader-to-decider hand-off: the decoded requests,
// their decisions, and optionally a terminal error to emit after them.
type streamBatch struct {
	reqs []AdmissionRequest
	out  []AdmissionResult
	term *streamError
}

// streamError is a terminal protocol or engine error; the decider emits
// it in order and closes the connection.
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

// serveConn runs the reader/decider pipeline over one connection.
func (s *StreamServer) serveConn(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, codec streamCodec) {
	pendingCh := make(chan *streamBatch, s.pending)
	freeCh := make(chan *streamBatch, s.pending+1)
	for i := 0; i < s.pending+1; i++ {
		freeCh <- &streamBatch{
			reqs: make([]AdmissionRequest, 0, s.batchSize),
			out:  make([]AdmissionResult, 0, s.batchSize),
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.decider(conn, bw, codec, pendingCh, freeCh)
	}()

	b := <-freeCh
	flush := func() bool {
		if len(b.reqs) == 0 && b.term == nil {
			return true
		}
		codec.countRequests(s.e, len(b.reqs))
		select {
		case pendingCh <- b:
		case <-done:
			return false // decider bailed (write error); stop reading
		}
		select {
		case b = <-freeCh:
		case <-done:
			return false
		}
		return true
	}
	var wr wire.Request
	for {
		err := codec.readRequest(br, &wr)
		if err != nil {
			var se *streamError
			switch {
			case errors.Is(err, io.EOF):
				// Clean end of stream: flush the tail and wind down.
			case errors.As(err, &se):
				s.e.ingest.streamErrors.Add(1)
				b.term = se
			default:
				// Transport error (reset, force-close): nothing to send.
			}
			flush()
			break
		}
		b.reqs = append(b.reqs, AdmissionRequest{
			VNF:         wr.VNF,
			Reliability: wr.Reliability,
			Arrival:     wr.Arrival,
			Duration:    wr.Duration,
			Payment:     wr.Payment,
			Scheme:      wr.Scheme,
		})
		// Close the batch at the cap, or as soon as the socket has nothing
		// more buffered: batch size adapts to the offered load.
		if len(b.reqs) >= s.batchSize || br.Buffered() == 0 {
			if !flush() {
				break
			}
		}
	}
	close(pendingCh)
	<-done
}

// decider drains batches: decide, encode, write, recycle.
func (s *StreamServer) decider(conn net.Conn, bw *bufio.Writer, codec streamCodec, pendingCh, freeCh chan *streamBatch) {
	buf := make([]byte, 0, 4096)
	for b := range pendingCh {
		if len(b.reqs) > 0 {
			s.e.ingest.observeBatch(len(b.reqs))
			b.out = b.out[:len(b.reqs)]
			if err := s.e.SubmitBatch(context.Background(), b.reqs, b.out); err != nil {
				// ErrClosed (shutdown) is the only error SubmitBatch can
				// return here; report it in place of the batch's decisions.
				b.term = &streamError{code: 503, reason: wire.ReasonClosed, detail: "engine has shut down"}
				if !errors.Is(err, ErrClosed) {
					b.term.reason = wire.ReasonInternal
					b.term.detail = err.Error()
				}
				s.e.ingest.streamErrors.Add(1)
			} else {
				buf = buf[:0]
				for i := range b.out {
					res := &b.out[i]
					buf = codec.appendDecision(buf, wire.Decision{
						ID:       uint64(res.ID),
						Slot:     res.Slot,
						Admitted: res.Admitted,
						Reason:   wire.CodeForReason(res.Reason),
					})
				}
				if _, err := bw.Write(buf); err != nil {
					conn.Close()
					return
				}
				if err := bw.Flush(); err != nil {
					conn.Close()
					return
				}
			}
		}
		if b.term != nil {
			bw.Write(codec.appendError(buf[:0], b.term))
			bw.Flush()
			conn.Close()
			return
		}
		b.reqs = b.reqs[:0]
		b.out = b.out[:0]
		freeCh <- b
	}
	bw.Flush()
}

// ndjsonCodec implements streamCodec for newline-delimited JSON.
type ndjsonCodec struct{}

func (ndjsonCodec) readRequest(br *bufio.Reader, req *wire.Request) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, io.EOF) && len(allWS(line)) > 0 {
				// Final line without a trailing newline.
				if derr := wire.DecodeNDJSONRequest(line, req); derr != nil {
					return invalidStream(derr.Error())
				}
				return nil
			}
			if errors.Is(err, bufio.ErrBufferFull) {
				return invalidStream("request line exceeds buffer")
			}
			return err
		}
		if trimmed := allWS(line); len(trimmed) == 0 {
			continue // tolerate blank keep-alive lines
		}
		if derr := wire.DecodeNDJSONRequest(line, req); derr != nil {
			return invalidStream(derr.Error())
		}
		return nil
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

// allWS returns line with leading/trailing JSON whitespace stripped (nil
// when nothing remains).
func allWS(line []byte) []byte {
	start, end := 0, len(line)
	for start < end && isWS(line[start]) {
		start++
	}
	for end > start && isWS(line[end-1]) {
		end--
	}
	return line[start:end]
}

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

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
