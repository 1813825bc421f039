// Package core implements the CYCLOSA node (§IV, §V): the browser-extension
// client that assesses query sensitivity and spreads the real query plus k
// adaptive fake queries over distinct relays, and the enclave-hosted relay
// that records forwarded queries (the fake-query source material), forwards
// them to the search engine over a secure channel and routes answers back.
//
// Every component that touches other users' queries runs behind the
// (simulated) enclave call gate; components that touch only the local
// user's data — the sensitivity analysis — run outside, minimizing trusted
// code exactly as the paper argues (§IV).
//
// A Network holds the nodes of one process. NewNetwork builds a whole
// deployment in process; NewHost builds one node whose relays live in
// other processes, as a cyclosa-node daemon or client runs it. Pairing —
// the attested key exchange before a client's first forward to a relay —
// goes through the conduit when it is a transport.Pairer (TCP), and
// straight to the in-process relay node otherwise.
package core

import (
	"math/rand"
	"sync"

	"cyclosa/internal/enclave"
)

// DefaultTableSize bounds the enclave-resident past-query table. The paper
// keeps the whole enclave at 1.7 MB to avoid EPC paging; a few thousand
// short queries fit comfortably.
const DefaultTableSize = 4096

// PastQueryTable is the enclave-resident store of queries this node has
// relayed for other users, used as the source of fake queries (§V-C). It is
// a bounded FIFO: once full, the oldest entry is evicted. Every byte is
// accounted against the enclave's EPC model.
type PastQueryTable struct {
	mu      sync.Mutex
	entries []string
	next    int
	full    bool
	epc     *enclave.EPC
	bytes   int64
}

// NewPastQueryTable creates a table bounded to size entries (DefaultTableSize
// if size <= 0), charging memory to the given EPC model (nil disables
// accounting).
func NewPastQueryTable(size int, epc *enclave.EPC) *PastQueryTable {
	if size <= 0 {
		size = DefaultTableSize
	}
	return &PastQueryTable{entries: make([]string, 0, size), epc: epc}
}

// Add records a relayed query. Empty queries are ignored.
func (t *PastQueryTable) Add(query string) {
	if query == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cost := int64(len(query))
	if t.full {
		old := t.entries[t.next]
		t.entries[t.next] = query
		t.next = (t.next + 1) % cap(t.entries)
		if t.epc != nil {
			t.epc.Free(int64(len(old)))
			t.epc.Alloc(cost)
		}
		t.bytes += cost - int64(len(old))
		return
	}
	t.entries = append(t.entries, query)
	if len(t.entries) == cap(t.entries) {
		t.full = true
		t.next = 0
	}
	if t.epc != nil {
		t.epc.Alloc(cost)
	}
	t.bytes += cost
}

// AddAll records a batch of queries (the Google-Trends bootstrap, §V-D).
func (t *PastQueryTable) AddAll(queries []string) {
	for _, q := range queries {
		t.Add(q)
	}
}

// Len returns the number of stored queries.
func (t *PastQueryTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Bytes returns the stored payload size (the EPC footprint of the table).
func (t *PastQueryTable) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Random returns one uniformly random stored query, or "" if empty.
func (t *PastQueryTable) Random(rng *rand.Rand) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) == 0 {
		return ""
	}
	return t.entries[rng.Intn(len(t.entries))]
}

// Snapshot returns a copy of all stored queries in insertion-ring order.
func (t *PastQueryTable) Snapshot() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.entries))
	copy(out, t.entries)
	return out
}

// Sample returns up to n random stored queries (with replacement when the
// table is smaller than n; fake queries may legitimately repeat).
func (t *PastQueryTable) Sample(rng *rand.Rand, n int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) == 0 || n <= 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = t.entries[rng.Intn(len(t.entries))]
	}
	return out
}
