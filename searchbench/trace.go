package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
)

// spanKind names one layer boundary. The tree of one search is
//
//	search → sensitivity.detect
//	       → transport.deliver ×(k+1 and retries) → relay.serve → backend.stack → backend.engine
type spanKind uint8

const (
	kindSearch spanKind = iota
	kindDetect
	kindDeliver
	kindServe
	kindStack
	kindEngine
	numKinds
)

var kindNames = [numKinds]string{"search", "sensitivity.detect", "transport.deliver", "relay.serve", "backend.stack", "backend.engine"}

// parentKind is the kind of the span that causes each kind (search is the
// root).
var parentKind = [numKinds]spanKind{kindSearch, kindSearch, kindSearch, kindDeliver, kindServe, kindStack}

func (k spanKind) String() string { return kindNames[k] }

// span is one timed call across a layer boundary. Every span of one search
// carries that search's protocol time in ns as id; key is the node the work
// ran for: the requester for search and detect, the relay below that.
type span struct {
	id         int64
	kind       spanKind
	key        string
	start, end int64 // ns on the tracer's monotonic clock
	bytes      int   // deliver: size of the response record
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) clock() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the set-up round trips).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// deliverConduit times the client side of one forward delivery.
type deliverConduit struct {
	inner transport.Conduit
	tr    *tracer
}

func (c deliverConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	start := c.tr.clock()
	resp, lat, err := c.inner.Deliver(from, to, payload, now)
	c.tr.add(span{id: now.UnixNano(), kind: kindDeliver, key: to, start: start, end: c.tr.clock(), bytes: len(resp)})
	return resp, lat, err
}

// serveConduit times the relay side: the host entry point and the enclave
// forward ecall, backend included.
type serveConduit struct {
	inner transport.Conduit
	tr    *tracer
}

func (c serveConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	start := c.tr.clock()
	resp, lat, err := c.inner.Deliver(from, to, payload, now)
	c.tr.add(span{id: now.UnixNano(), kind: kindServe, key: to, start: start, end: c.tr.clock()})
	return resp, lat, err
}

// tracedStack times the backend stack. It keeps the stack's deadline
// threading and stats surface, which the node looks for by interface.
type tracedStack struct {
	*backend.Stack
	tr *tracer
}

func (s tracedStack) Search(source, query string, now time.Time) ([]searchengine.Result, error) {
	return s.SearchBudget(source, query, now, 0)
}

func (s tracedStack) SearchBudget(source, query string, now time.Time, budget time.Duration) ([]searchengine.Result, error) {
	start := s.tr.clock()
	res, err := s.Stack.SearchBudget(source, query, now, budget)
	s.tr.add(span{id: now.UnixNano(), kind: kindStack, key: source, start: start, end: s.tr.clock()})
	return res, err
}

// tracedDetector times the semantic detector inside the real Search. The
// detector is not handed the search's id, so it reads the id the client
// loop stored for its user before calling Search.
type tracedDetector struct {
	inner   sensitivity.Detector
	tr      *tracer
	node    string
	current *int64
}

func (d *tracedDetector) IsSensitive(terms []string) bool {
	start := d.tr.clock()
	v := d.inner.IsSensitive(terms)
	d.tr.add(span{id: *d.current, kind: kindDetect, key: d.node, start: start, end: d.tr.clock()})
	return v
}

// spanTree links every span to its parent.
type spanTree struct {
	spans    []span
	parent   []int   // index of the parent span, -1 for a root
	children [][]int // indexes of the child spans
}

type spanKey struct {
	id   int64
	kind spanKind
	key  string
}

// buildTree resolves parents: detect and deliver hang off the search with
// the same id, every lower span off the span of the kind above it with the
// same id and relay. Two forwards of one search can reach the same relay
// (two retries may pick the same replacement), so among several such
// candidates the one whose interval holds the child is the parent. It
// reports the first malformed span: one whose parent is missing or whose
// interval is not inside its parent's.
func buildTree(spans []span) (*spanTree, error) {
	t := &spanTree{spans: spans, parent: make([]int, len(spans)), children: make([][]int, len(spans))}
	roots := make(map[int64]int)
	byKey := make(map[spanKey][]int)
	for i, s := range spans {
		switch s.kind {
		case kindSearch:
			roots[s.id] = i
		case kindDeliver, kindServe, kindStack:
			k := spanKey{s.id, s.kind, s.key}
			byKey[k] = append(byKey[k], i)
		}
	}
	var bad error
	for i, s := range spans {
		t.parent[i] = -1
		if s.kind == kindSearch {
			continue
		}
		p, ok := -1, false
		if parentKind[s.kind] == kindSearch {
			p, ok = roots[s.id]
		} else if cands := byKey[spanKey{s.id, parentKind[s.kind], s.key}]; len(cands) > 0 {
			p, ok = cands[0], true
			for _, c := range cands {
				if spans[c].start <= s.start && s.end <= spans[c].end {
					p = c
					break
				}
			}
		}
		if _, rooted := roots[s.id]; !rooted && bad == nil {
			bad = fmt.Errorf("%s span %d: id %d matches no search", s.kind, i, s.id)
		}
		if !ok {
			if bad == nil {
				bad = fmt.Errorf("%s span %d (id %d, %s): no %s parent", s.kind, i, s.id, s.key, parentKind[s.kind])
			}
			continue
		}
		if ps := spans[p]; (s.start < ps.start || s.end > ps.end) && bad == nil {
			bad = fmt.Errorf("%s span %d [%d,%d] outside its %s parent [%d,%d]", s.kind, i, s.start, s.end, ps.kind, ps.start, ps.end)
		}
		t.parent[i] = p
		t.children[p] = append(t.children[p], i)
	}
	return t, bad
}

// selfTime is the part of span i's interval that none of its children
// cover.
func (t *spanTree) selfTime(i int) int64 {
	s := t.spans[i]
	iv := make([][2]int64, 0, len(t.children[i]))
	for _, c := range t.children[i] {
		iv = append(iv, [2]int64{t.spans[c].start, t.spans[c].end})
	}
	return s.dur() - covered(s.start, s.end, iv)
}

// covered returns how much of [start, end) the union of the intervals
// covers.
func covered(start, end int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range iv {
		s, e := max(c[0], start), min(c[1], end)
		if s >= e {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes the tree as gzipped TSV after a comment line: index,
// parent, id, name, key, start and end in ns.
func writeSpans(path, comment string, t *spanTree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, comment)
	fmt.Fprintln(w, "index\tparent\tid\tname\tkey\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i, t.parent[i], s.id, s.kind, s.key, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
