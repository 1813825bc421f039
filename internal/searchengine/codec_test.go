package searchengine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cyclosa/internal/testutil"
)

func sampleResults() []Result {
	return []Result{
		{DocID: 12, URL: "https://web.sim/travel/12", Title: "alpha beta", Terms: []string{"alpha", "beta", "gamma"}, Score: 7.125},
		{DocID: 0, URL: "https://web.sim/pets/0", Title: "", Terms: nil, Score: -2.5},
		{DocID: -3, URL: "", Title: "only title", Terms: []string{""}, Score: 0},
	}
}

func TestResultsCodecRoundTrip(t *testing.T) {
	for _, results := range [][]Result{nil, {}, sampleResults()} {
		blob := AppendResults(nil, results)
		got, rest, err := DecodeResults(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Errorf("unconsumed bytes: %d", len(rest))
		}
		if len(got) != len(results) {
			t.Fatalf("count: got %d, want %d", len(got), len(results))
		}
		for i := range got {
			g, w := got[i], results[i]
			if g.DocID != w.DocID || g.URL != w.URL || g.Title != w.Title || g.Score != w.Score {
				t.Errorf("result %d: got %+v, want %+v", i, g, w)
			}
			if len(g.Terms) != len(w.Terms) {
				t.Fatalf("result %d terms: got %d, want %d", i, len(g.Terms), len(w.Terms))
			}
			for j := range g.Terms {
				if g.Terms[j] != w.Terms[j] {
					t.Errorf("result %d term %d: got %q, want %q", i, j, g.Terms[j], w.Terms[j])
				}
			}
		}
	}
}

func TestResultsCodecEmbedded(t *testing.T) {
	// A page followed by trailing bytes: DecodeResults consumes exactly the
	// page (the core response codec relies on this).
	blob := AppendResults(nil, sampleResults())
	blob = append(blob, 0xDE, 0xAD)
	_, rest, err := DecodeResults(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != 0xDE {
		t.Errorf("remainder: got %x", rest)
	}
}

func TestResultsCodecRejectsBadFrames(t *testing.T) {
	good := AppendResults(nil, sampleResults())
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeResults(good[:i]); err == nil {
			// A truncation may still parse if it cuts exactly at a result
			// boundary and the count were smaller — but the count is fixed
			// up front, so every prefix must fail.
			t.Errorf("truncated page of %d bytes accepted", i)
		}
	}
	bad := append([]byte{}, good...)
	bad[0] = 0xEE
	if _, _, err := DecodeResults(bad); !errors.Is(err, ErrWireVersion) {
		t.Errorf("unknown version: got %v", err)
	}
	// A count field claiming 2^40 results must be rejected before any
	// allocation.
	huge := []byte{ResultsWireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F}
	if _, _, err := DecodeResults(huge); !errors.Is(err, ErrWireOversize) {
		t.Errorf("oversized count: got %v", err)
	}
}

func TestClampForWire(t *testing.T) {
	ok := sampleResults()
	if got := ClampForWire(ok); len(got) != len(ok) {
		t.Errorf("clamp dropped valid results: %d -> %d", len(ok), len(got))
	}

	// An oversize string is dropped, the rest survives, and the clamped
	// page must encode and decode cleanly.
	bad := append([]Result{{DocID: 1, URL: strings.Repeat("x", MaxWireStringLen+1)}}, sampleResults()...)
	got := ClampForWire(bad)
	if len(got) != len(bad)-1 {
		t.Fatalf("clamp kept %d of %d, want %d", len(got), len(bad), len(bad)-1)
	}
	if _, _, err := DecodeResults(AppendResults(nil, got)); err != nil {
		t.Errorf("clamped page does not round-trip: %v", err)
	}

	// An oversize page is cut to the bound.
	many := make([]Result, MaxWireResults+10)
	if got := ClampForWire(many); len(got) != MaxWireResults {
		t.Errorf("clamped count = %d, want %d", len(got), MaxWireResults)
	}
}

func TestResultsCodecAllocsOnEmptyPage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	dst := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		dst = AppendResults(dst[:0], nil)
	}); n != 0 {
		t.Errorf("AppendResults(nil page) allocates %.1f times, want 0", n)
	}
	empty := AppendResults(nil, nil)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeResults(empty); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeResults(empty page) allocates %.1f times, want 0", n)
	}

	// The validating walk allocates nothing on any page, and a decode costs
	// one copy of the page plus the result slice plus one term list per
	// result that has terms.
	for _, results := range [][]Result{nil, sampleResults(), fullPage()} {
		page := AppendResults(nil, results)
		if n := testing.AllocsPerRun(200, func() {
			if _, err := ValidateResults(page); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ValidateResults(%d results) allocates %.1f times, want 0", len(results), n)
		}
		want := 0
		if len(results) > 0 {
			want = 2
		}
		for _, r := range results {
			if len(r.Terms) > 0 {
				want++
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, _, err := DecodeResults(page); err != nil {
				t.Fatal(err)
			}
		}); n != float64(want) {
			t.Errorf("DecodeResults(%d results) allocates %.1f times, want %d", len(results), n, want)
		}
	}
}

// fullPage is a first page of ten results with terms.
func fullPage() []Result {
	page := make([]Result, 10)
	for i := range page {
		page[i] = Result{DocID: i, URL: "https://web.sim/music/" + strings.Repeat("x", i), Title: "live albums", Terms: []string{"live", "albums"}, Score: float64(i)}
	}
	return page
}

// FuzzResultsDecode hammers the page decoder with arbitrary bytes: it must
// never panic; ValidateResults and DecodeResults must accept and reject the
// same inputs and consume the same prefix; decoded strings must survive the
// input buffer being overwritten; and whatever decodes must re-encode and
// decode to the same page.
func FuzzResultsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResults(nil, nil))
	f.Add(AppendResults(nil, sampleResults()))
	f.Add(append(AppendResults(nil, sampleResults()), 0xDE, 0xAD))
	f.Add(AppendResults(nil, fullPage()))
	f.Fuzz(func(t *testing.T, data []byte) {
		vrest, verr := ValidateResults(data)
		results, rest, err := DecodeResults(data)
		if (verr == nil) != (err == nil) {
			t.Fatalf("validate and decode disagree: validate %v, decode %v", verr, err)
		}
		if err != nil {
			return
		}
		if len(vrest) != len(rest) {
			t.Fatalf("validate consumed %d bytes, decode %d", len(data)-len(vrest), len(data)-len(rest))
		}
		re := AppendResults(nil, results)
		for i := range data {
			data[i] ^= 0xFF
		}
		if again := AppendResults(nil, results); !bytes.Equal(again, re) {
			t.Fatalf("decoded page changed when the input buffer was overwritten")
		}
		got, rest, err := DecodeResults(re)
		if err != nil || len(rest) != 0 || len(got) != len(results) {
			t.Fatalf("re-encode mismatch: %v (rest %d, got %d want %d)", err, len(rest), len(got), len(results))
		}
	})
}
