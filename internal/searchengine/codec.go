package searchengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cyclosa/internal/wire"
)

// Binary result-page codec. Result pages cross two hot boundaries on every
// forwarded query — the engine ocall return and the encrypted forward
// response — so they are encoded with a compact length-prefixed binary
// format instead of JSON. Layout (all varints are unsigned LEB128 as in
// encoding/binary, scores are IEEE-754 bits big-endian):
//
//	page   := version(1B) count(uvarint) result*
//	result := docID(varint) url(str) title(str) nTerms(uvarint) term* score(8B)
//	str    := len(uvarint) bytes
//
// Decoding is hardened: truncated input, unknown versions and any length
// field beyond the Max* bounds below are rejected before allocation.

// ResultsWireVersion is the result-page wire version; bump on layout change.
const ResultsWireVersion = 1

// Decode bounds: a frame claiming more than these is rejected as corrupt
// (a genuine page is ~10 results of short strings).
const (
	// MaxWireResults bounds the result count of one page.
	MaxWireResults = 4096
	// MaxWireStringLen bounds any URL, title or term.
	MaxWireStringLen = 16 << 10
	// MaxWireTerms bounds the term list of one result.
	MaxWireTerms = 4096
)

// Result-codec errors. Truncation and oversize are the shared wire-level
// errors (aliased so errors.Is matches across packages).
var (
	ErrWireTruncated = wire.ErrTruncated
	ErrWireOversize  = wire.ErrOversize
	ErrWireVersion   = errors.New("searchengine: unknown result page version")
)

// AppendResults appends the binary encoding of a result page to dst and
// returns the extended slice. A nil/empty page encodes to the 2-byte header.
func AppendResults(dst []byte, results []Result) []byte {
	dst = append(dst, ResultsWireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for i := range results {
		r := &results[i]
		dst = binary.AppendVarint(dst, int64(r.DocID))
		dst = wire.AppendString(dst, r.URL)
		dst = wire.AppendString(dst, r.Title)
		dst = binary.AppendUvarint(dst, uint64(len(r.Terms)))
		for _, t := range r.Terms {
			dst = wire.AppendString(dst, t)
		}
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Score))
	}
	return dst
}

// ClampForWire bounds a result page to what the wire format can carry, so
// an arbitrary Backend cannot make an honest relay emit a response its
// client's decoder rejects: the page is cut to MaxWireResults and any
// result with a string beyond MaxWireStringLen or more than MaxWireTerms
// terms is dropped. The common case (every bound respected) returns the
// slice unchanged without copying.
func ClampForWire(results []Result) []Result {
	if len(results) > MaxWireResults {
		results = results[:MaxWireResults]
	}
	for i := range results {
		if !wireSafe(&results[i]) {
			// Slow path: rebuild without the offending results.
			out := make([]Result, 0, len(results))
			for j := range results {
				if wireSafe(&results[j]) {
					out = append(out, results[j])
				}
			}
			return out
		}
	}
	return results
}

func wireSafe(r *Result) bool {
	if len(r.URL) > MaxWireStringLen || len(r.Title) > MaxWireStringLen || len(r.Terms) > MaxWireTerms {
		return false
	}
	for _, t := range r.Terms {
		if len(t) > MaxWireStringLen {
			return false
		}
	}
	return true
}

// ValidateResults walks one result page at the front of data and returns
// the unconsumed remainder. It applies every check DecodeResults applies —
// version, MaxWireResults, MaxWireStringLen, MaxWireTerms, truncation — and
// allocates nothing on a well-formed page, so a caller can accept or reject
// a page it never reads (the answer to a fake query) without
// materializing it.
func ValidateResults(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrWireTruncated
	}
	if data[0] != ResultsWireVersion {
		return nil, fmt.Errorf("%w: %d", ErrWireVersion, data[0])
	}
	count, data, err := wire.ConsumeUvarint(data[1:], MaxWireResults)
	if err != nil {
		return nil, err
	}
	for ; count > 0; count-- {
		if _, data, err = wire.ConsumeVarint(data); err != nil {
			return nil, err
		}
		// URL and title.
		if _, data, err = wire.ConsumeBytes(data, MaxWireStringLen); err != nil {
			return nil, err
		}
		if _, data, err = wire.ConsumeBytes(data, MaxWireStringLen); err != nil {
			return nil, err
		}
		var nTerms uint64
		if nTerms, data, err = wire.ConsumeUvarint(data, MaxWireTerms); err != nil {
			return nil, err
		}
		for ; nTerms > 0; nTerms-- {
			if _, data, err = wire.ConsumeBytes(data, MaxWireStringLen); err != nil {
				return nil, err
			}
		}
		if len(data) < 8 {
			return nil, ErrWireTruncated
		}
		data = data[8:]
	}
	return data, nil
}

// DecodeResults decodes one result page from the front of data, returning
// the page, the unconsumed remainder and any error. The page is validated
// first (ValidateResults), then read from a single copy of its bytes: every
// URL, title and term is a substring of that copy, so the results do not
// alias data and the caller may reuse the buffer. A page therefore costs
// two allocations plus one per result that has terms. A zero-count page
// decodes to a nil slice without allocating.
func DecodeResults(data []byte) ([]Result, []byte, error) {
	rest, err := ValidateResults(data)
	if err != nil {
		return nil, nil, err
	}
	page := data[:len(data)-len(rest)]
	count, n := binary.Uvarint(page[1:])
	if count == 0 {
		return nil, rest, nil
	}
	// The walk above proved every field in bounds: read without re-checking.
	s := string(page)
	off := 1 + n
	results := make([]Result, count)
	for i := range results {
		r := &results[i]
		docID, n := binary.Varint(page[off:])
		off += n
		r.DocID = int(docID)
		r.URL = pageString(page, s, &off)
		r.Title = pageString(page, s, &off)
		nTerms, n := binary.Uvarint(page[off:])
		off += n
		if nTerms > 0 {
			r.Terms = make([]string, nTerms)
			for j := range r.Terms {
				r.Terms[j] = pageString(page, s, &off)
			}
		}
		r.Score = math.Float64frombits(binary.BigEndian.Uint64(page[off:]))
		off += 8
	}
	return results, rest, nil
}

// pageString returns the length-prefixed string at page[*off:] as a
// substring of s, the copy of the validated page, and advances *off past it.
func pageString(page []byte, s string, off *int) string {
	l, n := binary.Uvarint(page[*off:])
	start := *off + n
	*off = start + int(l)
	return s[start:*off]
}
