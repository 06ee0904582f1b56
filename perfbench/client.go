package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	rangereach "repro"
)

// requestTimeout bounds every request; a request that takes longer
// counts as failed.
const requestTimeout = 5 * time.Second

// loopback serves a handler on 127.0.0.1 for the length of a phase.
type loopback struct {
	srv  *http.Server
	addr string
	done chan error
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: requestTimeout},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// stop shuts the listener down and waits for Serve to return. Clients
// should close their connections first.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// scrape fetches GET /metrics and returns every sample by its full
// name, labels included (`rr_build_seconds_sum{phase="snapshot"}`).
func (lb *loopback) scrape() (map[string]float64, error) {
	c := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get("http://" + lb.addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// conn is a minimal HTTP/1.1 keep-alive client over one TCP
// connection. Requests are written pre-encoded and the response body is
// read into a reused buffer, so the generator adds as little as
// possible to the round trip it measures. In its place, net/http.Client
// with a keep-alive Transport (one per connection) measured a
// serve-zipf query_p50_us of 53–62 µs and qps of 28–32k, against
// 33–37 µs and 46–48k with this client (10 s runs, seeds 1–3, 2 CPUs):
// the generator's own work would have been a third of what it measures.
// It reads only Content-Length framing, which net/http's server uses
// for the small query and update responses; any other framing fails the
// request.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
	// broken is set by a transport error; the connection must be
	// replaced.
	broken bool
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one encoded request and returns the status and body. The
// body is valid until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	status, body, err := c.roundTrip(req)
	if err != nil {
		c.broken = true
	}
	return status, body, err
}

func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if len(h) > 15 && bytes.EqualFold(h[:15], []byte("content-length:")) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(h[15:])))
			if err != nil {
				return 0, nil, fmt.Errorf("malformed content-length %q", h)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length: chunked or close-delimited framing is not supported")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// encodeRequest builds a complete HTTP/1.1 request.
func encodeRequest(method, path string, headers, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n",
		method, path, len(body))
	b.Write(headers)
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// traceHeaders are the headers of a traced request: a W3C traceparent,
// which makes the handler run the engine through Explain and return its
// QueryStats, and the request id the handler-span middleware files its
// span under.
func traceHeaders(dst []byte, req uint64) []byte {
	dst = append(dst, "traceparent: 00-"...)
	dst = appendHex(dst, 0x5eed, 16)
	dst = appendHex(dst, req+1, 16)
	dst = append(dst, '-')
	dst = appendHex(dst, req+1, 16)
	dst = append(dst, "-01\r\n"...)
	dst = append(dst, reqHeader...)
	dst = append(dst, ": "...)
	dst = strconv.AppendUint(dst, req, 10)
	return append(dst, "\r\n"...)
}

// reqHeader carries the benchmark's request id on traced requests.
const reqHeader = "X-Bench-Req"

func appendHex(dst []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	for i := width - 1; i >= 0; i-- {
		dst = append(dst, digits[(v>>(4*uint(i)))&0xf])
	}
	return dst
}

// answer is one /v1/query round trip.
type answer struct {
	start, end time.Time
	reachable  bool
	gen        uint64 // the snapshot generation that served it
}

// ask sends the query q on c and parses the answer. Untraced, it sends
// the pre-encoded plain request; with a ledger it encodes q with trace
// headers under request id id and files the client span and the engine
// profile the handler returns (none for a cache hit).
func ask(c *conn, plain []byte, q query, led *ledger, id uint64) (answer, error) {
	req := plain
	if led != nil {
		req = encodeRequest("POST", "/v1/query", traceHeaders(nil, id), queryBody(q))
	}
	var a answer
	a.start = time.Now()
	status, body, err := c.do(req)
	a.end = time.Now()
	if err != nil {
		return a, err
	}
	if status != http.StatusOK {
		return a, fmt.Errorf("query: status %d: %.200s", status, body)
	}
	if led == nil {
		var ok bool
		if a.reachable, err = reachable(body); err != nil {
			return a, err
		}
		if a.gen, ok = jsonUint(body, "gen"); !ok {
			return a, fmt.Errorf("query response without gen: %.200s", body)
		}
		return a, nil
	}
	var resp struct {
		Reachable bool                   `json:"reachable"`
		Gen       uint64                 `json:"gen"`
		Stats     *rangereach.QueryStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Stats == nil {
		return a, fmt.Errorf("traced query response without stats: %.200s", body)
	}
	a.reachable, a.gen = resp.Reachable, resp.Gen
	led.add("client", id, a.start, a.end)
	if !resp.Stats.CacheHit {
		led.addEngine(id, time.Time{}, resp.Stats)
	}
	return a, nil
}

// reachable reads the answer of a /v1/query response. The handler
// encodes "reachable" first; anything else is a malformed response.
func reachable(body []byte) (bool, error) {
	switch {
	case bytes.HasPrefix(body, []byte(`{"reachable":true`)):
		return true, nil
	case bytes.HasPrefix(body, []byte(`{"reachable":false`)):
		return false, nil
	}
	return false, fmt.Errorf("unexpected query response %.80q", body)
}

// jsonUint reads the unsigned integer value of a top-level key from a
// small flat JSON object.
func jsonUint(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	j := i + len(key) + 3
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return v, err == nil
}
