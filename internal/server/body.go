package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bodyPool recycles request-body buffers. A /v1/query reply is encoded
// into the buffer its request was read into, so one buffer serves the
// whole request.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledBody is the largest buffer bodyPool keeps, so one large batch
// body does not stay pinned in the pool.
const maxPooledBody = 64 << 10

func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		*buf = (*buf)[:0]
		bodyPool.Put(buf)
	}
}

// readBody reads the whole request body into a pooled buffer under the
// MaxBodyBytes cap, answering the error response itself on failure: 413
// for a body over the cap, 400 for a failed read. It returns nil after
// answering; otherwise the caller hands the buffer back with putBody.
func (s *Server) readBody(w *statusWriter, r *http.Request) *[]byte {
	limit := s.cfg.MaxBodyBytes
	if limit > 0 && r.ContentLength > limit {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		return nil
	}
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):cap(buf)]
		if limit > 0 && int64(len(room)) > limit+1-int64(len(buf)) {
			// Read at most one byte past the cap: enough to tell.
			room = room[:limit+1-int64(len(buf))]
		}
		n, err := r.Body.Read(room)
		buf = buf[:len(buf)+n]
		*bp = buf
		if limit > 0 && int64(len(buf)) > limit {
			putBody(bp)
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
			return nil
		}
		if err == io.EOF {
			return bp
		}
		if err != nil {
			putBody(bp)
			s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return nil
		}
	}
}

// decodeQuery decodes a /v1/query body. The canonical body takes
// scanQuery's allocation-free path; anything else goes to the
// encoding/json decoder over the same bytes, so what is accepted, what
// trailing data is tolerated and how errors read are the decoder's.
func decodeQuery(b []byte) (queryRequest, error) {
	if req, ok := scanQuery(b); ok {
		return req, nil
	}
	var req queryRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// scanQuery decodes the canonical query body in place: one object with
// exactly the keys "vertex" (an integer) and "region" (an array of four
// numbers), in either order, with JSON whitespace between tokens and
// anything after the closing brace ignored, as json.Decoder ignores it.
// It reports false for every other input, including inputs
// encoding/json accepts (other key spellings, escaped keys, duplicate
// or missing keys, null, other array lengths), and for numbers strconv
// rejects (out of range, or a vertex that is not an integer).
func scanQuery(b []byte) (req queryRequest, ok bool) {
	sc := bodyScanner{b: b}
	if !sc.tok('{') {
		return req, false
	}
	var haveVertex, haveRegion bool
	for !haveVertex || !haveRegion {
		if (haveVertex || haveRegion) && !sc.tok(',') {
			return req, false
		}
		switch {
		case !haveVertex && sc.key("vertex"):
			num := sc.number()
			if num == nil {
				return req, false
			}
			v, err := strconv.Atoi(string(num))
			if err != nil {
				return req, false
			}
			req.Vertex, haveVertex = v, true
		case !haveRegion && sc.key("region"):
			if !sc.tok('[') {
				return req, false
			}
			for i := range req.Region {
				if i > 0 && !sc.tok(',') {
					return req, false
				}
				num := sc.number()
				if num == nil {
					return req, false
				}
				f, err := strconv.ParseFloat(string(num), 64)
				if err != nil {
					return req, false
				}
				req.Region[i] = f
			}
			if !sc.tok(']') {
				return req, false
			}
			haveRegion = true
		default:
			return req, false
		}
	}
	return req, sc.tok('}')
}

// bodyScanner walks a JSON text for scanQuery. Every method skips the
// whitespace before its token.
type bodyScanner struct {
	b []byte
	i int
}

func (s *bodyScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *bodyScanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// tok consumes the byte c.
func (s *bodyScanner) tok(c byte) bool {
	s.skipSpace()
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// key consumes the object key k, written as a plain quoted string, and
// the colon after it.
func (s *bodyScanner) key(k string) bool {
	s.skipSpace()
	end := s.i + len(k) + 2
	if end > len(s.b) || s.b[s.i] != '"' || s.b[end-1] != '"' || string(s.b[s.i+1:end-1]) != k {
		return false
	}
	s.i = end
	return s.tok(':')
}

// number consumes a number in the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text;
// nil when there is none. strconv alone would also take forms JSON
// forbids, such as +1, .5, 0x1p3, Inf and NaN.
func (s *bodyScanner) number() []byte {
	s.skipSpace()
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil
		}
	}
	return s.b[start:s.i]
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *bodyScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// appendQueryResponse appends resp exactly as json.Encoder writes it,
// trailing newline included. It encodes the untraced shape only: the
// omitempty fields Shard, TraceID and Stats must be empty.
func appendQueryResponse(b []byte, resp queryResponse) []byte {
	b = append(b, `{"reachable":`...)
	b = strconv.AppendBool(b, resp.Reachable)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, `,"gen":`...)
	b = strconv.AppendUint(b, resp.Gen, 10)
	b = append(b, `,"micros":`...)
	b = strconv.AppendInt(b, resp.Micros, 10)
	return append(b, "}\n"...)
}
