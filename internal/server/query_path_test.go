package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rangereach "repro"
)

// FuzzQueryBody checks decodeQuery against json.Decoder over the same
// bytes: for every input both must accept, or both refuse with the same
// error text, and an accepted input must decode to the same request,
// bit for bit.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		// Canonical bodies, as rrload, rrrouter and the benchmark send them.
		`{"vertex":3,"region":[0,0,50,50]}`,
		`{"vertex":0,"region":[-122.5,37.25,-122.25,37.5]}`,
		// Reordered keys and extra whitespace.
		`{"region":[1,2,3,4],"vertex":9}`,
		" \t\n{ \"vertex\" :\r 5 , \"region\" : [ 1 , 2.5e1 , -3E-2 , 4 ] } ",
		// Control characters JSON does not count as whitespace.
		"{\"vertex\":1,\v\"region\":[0,0,1,1]}",
		"{\"vertex\":1,\"region\":[0,\f0,1,1]}",
		// Duplicate and missing keys.
		`{"vertex":1,"vertex":2,"region":[0,0,1,1]}`,
		`{"vertex":1,"region":[0,0,1,1],"region":[5,5,6,6]}`,
		`{"vertex":1,"region":[0,0,1,1],"region":[5,5]}`,
		`{"vertex":4}`,
		`{}`,
		// Other key spellings and unknown keys.
		`{"Vertex":1,"REGION":[0,0,1,1]}`,
		`{"vertex":1,"region":[0,0,1,1]}`,
		`{"vertex":1,"region":[0,0,1,1],"extra":true}`,
		// Vertex values.
		`{"vertex":1e2,"region":[0,0,1,1]}`,
		`{"vertex":-0,"region":[0,0,1,1]}`,
		`{"vertex":01,"region":[0,0,1,1]}`,
		`{"vertex":1.0,"region":[0,0,1,1]}`,
		`{"vertex":9223372036854775808,"region":[0,0,1,1]}`,
		`{"vertex":"1","region":[0,0,1,1]}`,
		// Region shapes.
		`{"vertex":1,"region":[0,0,1]}`,
		`{"vertex":1,"region":[0,0,1,1,9]}`,
		`{"vertex":1,"region":null}`,
		`{"vertex":null,"region":[0,0,1,1]}`,
		// Number forms strconv takes and JSON forbids, and overflow.
		`{"vertex":+1,"region":[0,0,1,1]}`,
		`{"vertex":1,"region":[.5,0,1,1]}`,
		`{"vertex":1,"region":[0x1p3,0,1,1]}`,
		`{"vertex":1,"region":[Infinity,0,1,1]}`,
		`{"vertex":1,"region":[NaN,0,1,1]}`,
		`{"vertex":1,"region":[1e400,0,1,1]}`,
		`{"vertex":1,"region":[-0,1.,1,1]}`,
		`{"vertex":1,"region":[-0,1e,1,1]}`,
		// Trailing data, truncation and non-objects.
		`{"vertex":1,"region":[0,0,1,1]} garbage`,
		`{"vertex":1,"region":[0,0,1,1]}{"vertex":2}`,
		`{"vertex":1,"region":[0,0,1,1]`,
		`{not json`,
		``,
		`[1,2]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotErr := decodeQuery(b)
		var want queryRequest
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeQuery error %v, encoding/json error %v", b, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error text %q, encoding/json %q", b, gotErr, wantErr)
			}
			return
		}
		if got.Vertex != want.Vertex {
			t.Fatalf("%q: vertex %d, encoding/json %d", b, got.Vertex, want.Vertex)
		}
		for i := range got.Region {
			if math.Float64bits(got.Region[i]) != math.Float64bits(want.Region[i]) {
				t.Fatalf("%q: region %v, encoding/json %v", b, got.Region, want.Region)
			}
		}
	})
}

// TestScanQueryTakesCanonicalBodies pins which bodies the scanner
// decodes itself; the parity fuzz alone would pass a scanner that sent
// everything to encoding/json.
func TestScanQueryTakesCanonicalBodies(t *testing.T) {
	for _, tc := range []struct {
		body string
		want queryRequest
	}{
		{`{"vertex":3,"region":[0,0,50,50]}`, queryRequest{3, [4]float64{0, 0, 50, 50}}},
		{`{"region":[1,2,3,4],"vertex":9}`, queryRequest{9, [4]float64{1, 2, 3, 4}}},
		{" {\n\"vertex\" : -0 ,\t\"region\":[ -1.5 ,2e3,3E-1, 0.25 ]}\r\n", queryRequest{0, [4]float64{-1.5, 2000, 0.3, 0.25}}},
		{`{"vertex":7,"region":[0,0,1,1]} trailing`, queryRequest{7, [4]float64{0, 0, 1, 1}}},
	} {
		got, ok := scanQuery([]byte(tc.body))
		if !ok || got != tc.want {
			t.Errorf("scanQuery(%q) = %+v, %v; want %+v, true", tc.body, got, ok, tc.want)
		}
	}
}

// TestAppendQueryResponseMatchesEncoder checks the append encoder
// against json.Encoder byte for byte, over the extremes of each field.
func TestAppendQueryResponseMatchesEncoder(t *testing.T) {
	for _, resp := range []queryResponse{
		{},
		{Reachable: true},
		{Cached: true, Gen: 1, Micros: 1},
		{Reachable: true, Cached: true, Gen: math.MaxUint64, Micros: 0},
		{Reachable: false, Cached: false, Gen: 42, Micros: math.MaxInt64},
		{Reachable: true, Gen: 7, Micros: -3},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendQueryResponse([]byte("prefix"), resp); string(got) != "prefix"+want.String() {
			t.Errorf("%+v: appended %q, json.Encoder wrote %q", resp, got[len("prefix"):], want.String())
		}
	}
}

// nopWriter is a ResponseWriter that keeps the last status and body.
type nopWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *nopWriter) Header() http.Header  { return w.h }
func (w *nopWriter) WriteHeader(code int) { w.status = code }
func (w *nopWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// replayer sends prebuilt /v1/query requests through a handler in
// process, rewinding each request's body before it is sent again.
type replayer struct {
	h      http.Handler
	bodies [][]byte
	rds    []*bytes.Reader
	reqs   []*http.Request
	w      *nopWriter
	next   int
}

func newReplayer(h http.Handler, bodies [][]byte) *replayer {
	p := &replayer{h: h, bodies: bodies, w: &nopWriter{h: http.Header{}, body: make([]byte, 0, 256)}}
	for _, b := range bodies {
		rd := bytes.NewReader(b)
		p.rds = append(p.rds, rd)
		p.reqs = append(p.reqs, httptest.NewRequest(http.MethodPost, "/v1/query", rd))
	}
	return p
}

func (p *replayer) send() {
	i := p.next
	p.next = (i + 1) % len(p.reqs)
	p.rds[i].Reset(p.bodies[i])
	p.h.ServeHTTP(p.w, p.reqs[i])
}

// queryBodies returns n distinct canonical query bodies over net.
func queryBodies(net *rangereach.Network, n int) [][]byte {
	rng := rand.New(rand.NewSource(int64(n)))
	space := net.Space()
	out := make([][]byte, n)
	for i := range out {
		r := randRegion(rng, space)
		out[i] = []byte(fmt.Sprintf(`{"vertex":%d,"region":[%g,%g,%g,%g]}`,
			rng.Intn(net.NumVertices()), r[0], r[1], r[2], r[3]))
	}
	return out
}

// TestQueryPathAllocs gates the allocation-free /v1/query path: with no
// Logger and no trace sampling, neither a cache hit nor a cache miss
// (the cache full and evicting) allocates. AllocsPerRun truncates the mean, so a rare pooled-buffer refill after
// a GC does not count.
func TestQueryPathAllocs(t *testing.T) {
	srv := bodyTestServer(t, Config{})
	net := srv.cfg.Index.Network()

	hit := newReplayer(srv.Handler(), queryBodies(net, 1))
	hit.send()
	if hit.w.status != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", hit.w.status, hit.w.body)
	}
	if n := testing.AllocsPerRun(500, hit.send); n > 0 {
		t.Errorf("cache-hit /v1/query: %.2f allocs/op, want 0", n)
	}
	if !bytes.Contains(hit.w.body, []byte(`"cached":true`)) {
		t.Fatalf("hit path answered %s", hit.w.body)
	}

	// Twice the cache's entries in rotation: every request misses, and
	// every store evicts.
	miss := newReplayer(srv.Handler(), queryBodies(net, 8192))
	for range miss.reqs {
		miss.send()
	}
	before := srv.mMisses.Value()
	if n := testing.AllocsPerRun(2000, miss.send); n > 0 {
		t.Errorf("cache-miss /v1/query: %.2f allocs/op, want 0", n)
	}
	if got := srv.mMisses.Value() - before; got < 2000 {
		t.Fatalf("miss path: %d misses over 2001 requests", got)
	}
}

func benchmarkHandlerQuery(b *testing.B, distinct int) {
	net := testNetwork(b)
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Index: idx})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p := newReplayer(srv.Handler(), queryBodies(net, distinct))
	for range p.reqs {
		p.send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.send()
	}
}

// BenchmarkHandlerQueryHit replays one query, answered from the cache.
func BenchmarkHandlerQueryHit(b *testing.B) { benchmarkHandlerQuery(b, 1) }

// BenchmarkHandlerQueryMiss replays twice the cache's entries, so every
// request runs the engine and evicts.
func BenchmarkHandlerQueryMiss(b *testing.B) { benchmarkHandlerQuery(b, 8192) }

// TestQueryReplyBytes checks the handler's untraced replies, hit and
// miss, byte for byte against json.Encoder and the Content-Type header.
func TestQueryReplyBytes(t *testing.T) {
	srv := bodyTestServer(t, Config{})
	body := `{"vertex":3,"region":[0,0,50,50]}`
	for _, cached := range []bool{false, true} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Values("Content-Type"); len(ct) != 1 || ct[0] != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached != cached {
			t.Fatalf("cached = %v, want %v", resp.Cached, cached)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if rec.Body.String() != want.String() {
			t.Fatalf("reply %q, json.Encoder writes %q", rec.Body.String(), want.String())
		}
	}
}

// TestQueryStatusCodes covers the /v1/query statuses the handler
// decides itself: the QueryTimeout check, the body cap on a body of
// unknown length, and malformed bodies.
func TestQueryStatusCodes(t *testing.T) {
	body := `{"vertex":1,"region":[0,0,1,1]}`

	t.Run("timeout on a miss is 504", func(t *testing.T) {
		srv := bodyTestServer(t, Config{QueryTimeout: time.Nanosecond})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("got %d, want 504 (%s)", rec.Code, rec.Body.String())
		}
		if want := `{"error":"query: context deadline exceeded"}` + "\n"; rec.Body.String() != want {
			t.Fatalf("body %q, want %q", rec.Body.String(), want)
		}
	})

	t.Run("oversized chunked body is 413", func(t *testing.T) {
		srv := bodyTestServer(t, Config{MaxBodyBytes: 256})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		big := `{"vertex":1,"region":[0,0,1,1]}` + strings.Repeat(" ", 1000)
		for _, tc := range []struct {
			body string
			want int
		}{{big, http.StatusRequestEntityTooLarge}, {body, http.StatusOK}} {
			// A reader of unknown length makes the client send the body
			// chunked, with no Content-Length to refuse it up front.
			resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", io.MultiReader(strings.NewReader(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%d-byte chunked body: got %d, want %d (%s)", len(tc.body), resp.StatusCode, tc.want, raw)
			}
			if tc.want == http.StatusRequestEntityTooLarge && string(raw) != `{"error":"request body exceeds 256 bytes"}`+"\n" {
				t.Fatalf("413 body %q", raw)
			}
		}
	})

	t.Run("malformed body is 400 with the decoder's words", func(t *testing.T) {
		srv := bodyTestServer(t, Config{})
		for _, bad := range []string{
			`{not json`,
			``,
			`{"vertex":1,"region":[0,0,1,1]`,
			`{"vertex":"1","region":[0,0,1,1]}`,
			`{"vertex":01,"region":[0,0,1,1]}`,
			`{"vertex":1,"region":[1e400,0,1,1]}`,
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(bad)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: got %d, want 400", bad, rec.Code)
			}
			decErr := json.NewDecoder(strings.NewReader(bad)).Decode(&queryRequest{})
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(errorResponse{Error: "bad request: " + decErr.Error()}); err != nil {
				t.Fatal(err)
			}
			if rec.Body.String() != want.String() {
				t.Fatalf("%q: body %q, want %q", bad, rec.Body.String(), want.String())
			}
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{not json`)))
		if want := `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}` + "\n"; rec.Body.String() != want {
			t.Fatalf("body %q, want %q", rec.Body.String(), want)
		}
	})
}
