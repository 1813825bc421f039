package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/testutil"
)

// --- round trips ------------------------------------------------------------

func TestWireRequestRoundTrip(t *testing.T) {
	for _, q := range []string{"", "a", "private web search", strings.Repeat("long ", 100)} {
		frame := appendRequest(nil, 42, q)
		id, query, err := decodeRequestWire(frame)
		if err != nil {
			t.Fatalf("decode(%q): %v", q, err)
		}
		if id != 42 || string(query) != q {
			t.Errorf("round trip: got (%d, %q), want (42, %q)", id, query, q)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	results := []searchengine.Result{
		{DocID: 7, URL: "https://web.sim/travel/7", Title: "a b c", Terms: []string{"a", "b", "c"}, Score: 3.25},
		{DocID: -1, URL: "", Title: "", Terms: nil, Score: 0},
	}
	for _, tc := range []forwardResponse{
		{RequestID: 1, Page: searchengine.AppendResults(nil, results)},
		{RequestID: 2, EngineError: "rate limited (captcha)"},
		{RequestID: 3},
	} {
		frame, err := encodeResponse(&tc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponseWire(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.RequestID != tc.RequestID || got.EngineError != tc.EngineError {
			t.Errorf("header round trip: got %+v, want %+v", got, tc)
		}
		wantPage := tc.Page
		if len(wantPage) == 0 {
			wantPage = emptyResultsBlob // a nil page encodes as the empty page
		}
		if !bytes.Equal(got.Page, wantPage) {
			t.Fatalf("page: got %x, want %x", got.Page, wantPage)
		}
		decoded, _, err := searchengine.DecodeResults(got.Page)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := searchengine.DecodeResults(wantPage)
		if len(decoded) != len(want) {
			t.Fatalf("results: got %d, want %d", len(decoded), len(want))
		}
		for i := range decoded {
			g, w := decoded[i], want[i]
			if g.DocID != w.DocID || g.URL != w.URL || g.Title != w.Title || g.Score != w.Score || len(g.Terms) != len(w.Terms) {
				t.Errorf("result %d: got %+v, want %+v", i, g, w)
			}
		}
	}
}

func TestWireGateFramesRoundTrip(t *testing.T) {
	now := time.Date(2006, 3, 1, 0, 0, 0, 12345, time.UTC).UnixNano()
	payload := bytes.Repeat([]byte{0xAB}, 536)

	frame := appendForwardArgs(nil, "node-17", payload, now)
	from, gotPayload, gotNow, err := decodeForwardArgs(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(from) != "node-17" || !bytes.Equal(gotPayload, payload) || gotNow != now {
		t.Errorf("forward args round trip mismatch")
	}

	frame = appendEngineArgs(nil, "node-17", []byte("the query"), now)
	source, query, gotNow, err := decodeEngineArgs(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(source) != "node-17" || string(query) != "the query" || gotNow != now {
		t.Errorf("engine args round trip mismatch")
	}
}

// --- hardening --------------------------------------------------------------

func TestWireRejectsBadFrames(t *testing.T) {
	good := appendRequest(nil, 9, "ok query")

	// Every truncation of a valid frame must fail cleanly.
	for i := 0; i < len(good); i++ {
		if _, _, err := decodeRequestWire(good[:i]); err == nil {
			t.Errorf("truncated frame of %d bytes accepted", i)
		}
	}
	// Unknown version.
	bad := append([]byte{}, good...)
	bad[0] = 99
	if _, _, err := decodeRequestWire(bad); !errors.Is(err, ErrWireVersion) {
		t.Errorf("unknown version: got %v, want ErrWireVersion", err)
	}
	// Trailing garbage.
	if _, _, err := decodeRequestWire(append(append([]byte{}, good...), 0)); !errors.Is(err, ErrWireTrailing) {
		t.Errorf("trailing bytes: want ErrWireTrailing")
	}
	// Oversized length field: a frame claiming a query far beyond the bound
	// must be rejected before allocation.
	huge := appendWireString(append([]byte{wireVersion}, make([]byte, 8)...), "")
	huge = huge[:len(huge)-1]                               // drop the empty-string varint
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // ~2^41 length
	if _, _, err := decodeRequestWire(huge); !errors.Is(err, ErrWireOversize) {
		t.Errorf("oversized length: got %v, want ErrWireOversize", err)
	}

	// Gate frames: truncations fail too.
	gf := appendForwardArgs(nil, "n", []byte("payload"), 1)
	for i := 0; i < len(gf); i++ {
		if _, _, _, err := decodeForwardArgs(gf[:i]); err == nil {
			t.Errorf("truncated forward args of %d bytes accepted", i)
		}
	}
	ef := appendEngineArgs(nil, "n", []byte("q"), 1)
	for i := 0; i < len(ef); i++ {
		if _, _, _, err := decodeEngineArgs(ef[:i]); err == nil {
			t.Errorf("truncated engine args of %d bytes accepted", i)
		}
	}
	resp, _ := encodeResponse(&forwardResponse{RequestID: 1, Page: searchengine.AppendResults(nil, []searchengine.Result{{DocID: 1, URL: "u", Terms: []string{"t"}}})})
	for i := 0; i < len(resp); i++ {
		if _, err := decodeResponseWire(resp[:i]); err == nil {
			t.Errorf("truncated response of %d bytes accepted", i)
		}
	}
}

// TestWireRejectsBadPages: the client validates every response's result
// page even though it decodes only the real one, so a malformed page fails
// the response whichever forward it answers.
func TestWireRejectsBadPages(t *testing.T) {
	page := searchengine.AppendResults(nil, []searchengine.Result{
		{DocID: 4, URL: "https://web.sim/pets/4", Title: "cat food", Terms: []string{"cat", "food"}, Score: 2},
	})
	frame := func(page []byte) []byte {
		return append(appendResponseHeader(nil, 11, ""), page...)
	}
	badVersion := append([]byte{}, page...)
	badVersion[0] = 0xEE
	// A term whose length field claims more than MaxWireStringLen.
	oversizeTerm := searchengine.AppendResults(nil, []searchengine.Result{{Terms: []string{""}}})
	oversizeTerm = append(oversizeTerm[:len(oversizeTerm)-9], 0xFF, 0xFF, 0x7F)
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"no page", frame(nil), ErrWireTruncated},
		{"truncated page", frame(page[:len(page)-3]), ErrWireTruncated},
		{"cut inside a string", frame(page[:6]), ErrWireTruncated},
		{"bad version", frame(badVersion), searchengine.ErrWireVersion},
		{"oversize count", frame([]byte{searchengine.ResultsWireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}), ErrWireOversize},
		{"oversize term", frame(oversizeTerm), ErrWireOversize},
		{"trailing bytes", append(frame(page), 0), ErrWireTrailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeResponseWire(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := decodeResponseWire(frame(page)); err != nil {
		t.Fatalf("the well-formed page is rejected: %v", err)
	}
}

// --- allocation regression ---------------------------------------------------

// The binary codec must not allocate when encoding into a buffer with spare
// capacity, and request decoding is zero-copy.
func TestWireCodecAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	dst := make([]byte, 0, 1024)
	query := "allocation probe query"
	if n := testing.AllocsPerRun(200, func() {
		dst = appendRequest(dst[:0], 77, query)
	}); n != 0 {
		t.Errorf("appendRequest allocates %.1f times per op, want 0", n)
	}
	frame := appendRequest(nil, 77, query)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := decodeRequestWire(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeRequestWire allocates %.1f times per op, want 0", n)
	}
	payload := make([]byte, 536)
	if n := testing.AllocsPerRun(200, func() {
		dst = appendForwardArgs(dst[:0], "client-1", payload, 12345)
	}); n != 0 {
		t.Errorf("appendForwardArgs allocates %.1f times per op, want 0", n)
	}
}

// One full forward round trip (encode, pad, encrypt, both gate crossings,
// decrypt, decode) must stay within 3 allocations at steady state — the
// two query-string copies (past-query table, backend call) plus slack.
func TestRelayRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	net, err := NewNetwork(NetworkOptions{Nodes: 2, Seed: 4242, Backend: NullBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]
	now := time.Unix(0, 0)

	// Warm up: establish the attested session, grow the scratch buffers and
	// fill the buffer pool.
	for i := 0; i < 16; i++ {
		if err := net.RelayRoundTrip(client, relay, "steady state probe", now); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if err := net.RelayRoundTrip(client, relay, "steady state probe", now); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 {
		t.Errorf("RelayRoundTrip allocates %.1f times per op, want <= 3", n)
	}
}

// fixedPage is a backend answering every query with the same page.
type fixedPage []searchengine.Result

func (p fixedPage) Search(string, string, time.Time) ([]searchengine.Result, error) {
	return p, nil
}

// tenResults is a full first page of realistic size.
func tenResults() fixedPage {
	page := make(fixedPage, 10)
	for i := range page {
		page[i] = searchengine.Result{
			DocID: 100 + i,
			URL:   fmt.Sprintf("https://web.sim/travel/%d", 100+i),
			Title: "cheap flights to lisbon in may",
			Terms: []string{"cheap", "flights", "lisbon", "may"},
			Score: float64(10 - i),
		}
	}
	return page
}

// A full result page keeps the empty-page budget: the relay encodes it into
// a pooled buffer and the client holds it as validated bytes in another, so
// neither side allocates per page.
func TestRelayRoundTripAllocsFullPage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	net, err := NewNetwork(NetworkOptions{Nodes: 2, Seed: 4242, Backend: tenResults()})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]
	now := time.Unix(0, 0)

	for i := 0; i < 16; i++ {
		if err := net.RelayRoundTrip(client, relay, "steady state probe", now); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if err := net.RelayRoundTrip(client, relay, "steady state probe", now); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs/op", n)
	if n > 3 {
		t.Errorf("RelayRoundTrip with a 10-result page allocates %.1f times per op, want <= 3", n)
	}
}

// BenchmarkWireRequestCodec measures one request encode+decode through the
// binary codec (the per-crossing serialization cost that replaced JSON).
func BenchmarkWireRequestCodec(b *testing.B) {
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = appendRequest(dst[:0], uint64(i), "private web search with sgx")
		if _, _, err := decodeRequestWire(dst); err != nil {
			b.Fatal(err)
		}
	}
}

// --- fuzzing ----------------------------------------------------------------

// FuzzWireRequest proves the request encoding round-trips for arbitrary
// field values.
func FuzzWireRequest(f *testing.F) {
	f.Add(uint64(0), "")
	f.Add(uint64(1), "private web search")
	f.Add(^uint64(0), strings.Repeat("x", maxWireQueryLen))
	f.Fuzz(func(t *testing.T, id uint64, query string) {
		if len(query) > maxWireQueryLen {
			query = query[:maxWireQueryLen]
		}
		frame := appendRequest(nil, id, query)
		gotID, gotQuery, err := decodeRequestWire(frame)
		if err != nil {
			t.Fatalf("decode of valid frame failed: %v", err)
		}
		if gotID != id || string(gotQuery) != query {
			t.Fatalf("round trip: got (%d, %q), want (%d, %q)", gotID, gotQuery, id, query)
		}
	})
}

// FuzzWireDecode hammers every decoder with arbitrary bytes: none may
// panic, and any frame that decodes must re-encode to a frame that decodes
// to the same values (truncated and oversized inputs are rejected by the
// error path).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRequest(nil, 7, "seed query"))
	f.Add(appendForwardArgs(nil, "n1", []byte("payload"), 99))
	f.Add(appendEngineArgs(nil, "n1", []byte("q"), 99))
	seed, _ := encodeResponse(&forwardResponse{RequestID: 3, Page: searchengine.AppendResults(nil, []searchengine.Result{{DocID: 5, URL: "u", Title: "t", Terms: []string{"a"}, Score: 1.5}})})
	f.Add(seed)
	f.Add([]byte{wireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, query, err := decodeRequestWire(data); err == nil {
			re := appendRequest(nil, id, string(query))
			id2, q2, err := decodeRequestWire(re)
			if err != nil || id2 != id || !bytes.Equal(q2, query) {
				t.Fatalf("request re-encode mismatch: %v", err)
			}
		}
		if resp, err := decodeResponseWire(data); err == nil {
			re, err := encodeResponse(&resp)
			if err != nil {
				t.Fatalf("re-encode of decoded response failed: %v", err)
			}
			resp2, err := decodeResponseWire(re)
			if err != nil || resp2.RequestID != resp.RequestID || resp2.EngineError != resp.EngineError || !bytes.Equal(resp2.Page, resp.Page) {
				t.Fatalf("response re-encode mismatch: %v", err)
			}
		}
		if from, payload, nowNano, err := decodeForwardArgs(data); err == nil {
			re := appendForwardArgs(nil, string(from), payload, nowNano)
			f2, p2, n2, err := decodeForwardArgs(re)
			if err != nil || !bytes.Equal(f2, from) || !bytes.Equal(p2, payload) || n2 != nowNano {
				t.Fatalf("forward args re-encode mismatch: %v", err)
			}
		}
		//nolint:errcheck // robustness only: must not panic
		decodeEngineArgs(data)
	})
}
