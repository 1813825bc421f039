package nettrans

import (
	"fmt"
	"sync"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/core"
	"cyclosa/internal/transport"
)

// ConduitConfig configures a TCPConduit.
type ConduitConfig struct {
	// Resolve maps a relay node ID to its server's TCP address. An
	// unresolvable relay is reported unavailable. Required.
	Resolve func(nodeID string) (addr string, ok bool)
	// Pool carries the connections; when nil a private pool with PoolConfig
	// defaults is created (and owned — Close tears it down).
	Pool *Pool
	// PoolConfig configures the private pool when Pool is nil.
	PoolConfig PoolConfig
}

// TCPConduit delivers forward records over real TCP connections: it
// implements transport.Conduit, so a core.Network configured with it runs
// the unchanged protocol over sockets, and transport.Pairer, so the same
// network attests relays in other processes over attest frames. Many
// in-flight exchanges to the same peer multiplex over one pooled connection
// via frame stream IDs.
//
// Ownership contract (see transport.Conduit): the request record is copied
// to the socket during Deliver and never retained; the response record is
// copied off the wire into a per-pair buffer, which stays untouched until
// the same pair's next delivery.
type TCPConduit struct {
	pool      *Pool
	ownsPool  bool
	resolve   func(string) (string, bool)
	pairMu    sync.RWMutex
	pairBufs  map[pairKey]*pairBuf
	closeOnce sync.Once
}

type pairKey struct{ from, to string }

// pairBuf holds a pair's response scratch. The protocol serializes a pair's
// exchanges (the record sequence numbers leave no other order), so the
// buffer needs no lock of its own.
type pairBuf struct{ buf []byte }

var (
	_ transport.Conduit = (*TCPConduit)(nil)
	_ transport.Pairer  = (*TCPConduit)(nil)
)

// NewTCPConduit builds a conduit over the given resolver.
func NewTCPConduit(cfg ConduitConfig) *TCPConduit {
	if cfg.Resolve == nil {
		panic("nettrans: ConduitConfig.Resolve is required")
	}
	pool := cfg.Pool
	owns := false
	if pool == nil {
		pool = NewPool(cfg.PoolConfig)
		owns = true
	}
	return &TCPConduit{
		pool:     pool,
		ownsPool: owns,
		resolve:  cfg.Resolve,
		pairBufs: make(map[pairKey]*pairBuf),
	}
}

// WriteStats snapshots the underlying pool's aggregated write-path
// counters (flushes, frames, bytes — the coalescing contention proxy).
func (t *TCPConduit) WriteStats() WriteStatsSnapshot { return t.pool.WriteStats() }

// Deliver implements transport.Conduit: one data frame out, one resp (or
// err) frame back. Transport-level failures — unresolvable peer, dial
// failure, backoff window, saturated pipe, timeout, connection cut — are
// reported as core.ErrRelayUnavailable so the retry layer blacklists the
// peer exactly as it would an unresponsive simulated one; a served err
// frame with the throttled code surfaces as accounting.ErrClientThrottled
// (the relay skipped the record: the pair stays in step), one with the
// no-session code as core.ErrNoSession (the client re-pairs); any other
// served err frame surfaces as a plain error, which the protocol classifies
// as relay misbehavior.
func (t *TCPConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	addr, ok := t.resolve(to)
	if !ok {
		return nil, 0, fmt.Errorf("%w: nettrans: no address for relay %s", core.ErrRelayUnavailable, to)
	}
	meta := getFrame()
	*meta = appendDataMeta((*meta)[:0], now.UnixNano(), from, to, len(payload))
	h, buf, err := t.pool.RoundTrip(addr, frameData, *meta, payload)
	putFrame(meta)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", core.ErrRelayUnavailable, err)
	}
	defer putFrame(buf)

	switch h.typ {
	case frameResp:
		injectedNano, record, err := decodeRespPayload(*buf)
		if err != nil {
			return nil, 0, fmt.Errorf("nettrans: bad resp frame from %s: %w", to, err)
		}
		pb := t.pair(from, to)
		pb.buf = append(pb.buf[:0], record...)
		return pb.buf, time.Duration(injectedNano), nil
	case frameErr:
		code, msg, err := decodeErrPayload(*buf)
		if err != nil {
			return nil, 0, fmt.Errorf("nettrans: bad err frame from %s: %w", to, err)
		}
		switch code {
		case errCodeUnavailable:
			return nil, 0, fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrRelayUnavailable, to, msg)
		case errCodeThrottled:
			return nil, 0, fmt.Errorf("%w: nettrans: relay %s: %s", accounting.ErrClientThrottled, to, msg)
		case errCodeNoSession:
			return nil, 0, fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrNoSession, to, msg)
		}
		return nil, 0, fmt.Errorf("nettrans: relay %s rejected exchange: %s", to, msg)
	default:
		return nil, 0, fmt.Errorf("nettrans: unexpected frame type %d from %s", h.typ, to)
	}
}

// Pair implements transport.Pairer: one attest frame carrying
// from | to | offer to the relay's server, its answer back. Transport
// failures are core.ErrRelayUnavailable, as for Deliver; a pairing the
// relay will not hold on this connection is core.ErrNoSession; a refused
// offer (the relay failed to verify it, or does not serve to) is
// ErrAttestRejected.
func (t *TCPConduit) Pair(from, to string, offer []byte) ([]byte, error) {
	addr, ok := t.resolve(to)
	if !ok {
		return nil, fmt.Errorf("%w: nettrans: no address for relay %s", core.ErrRelayUnavailable, to)
	}
	return t.pairAt(addr, from, to, offer)
}

// At returns a Pairer that pairs with the server at addr, bypassing the
// resolver: the attestation directory verifies peers before they resolve.
func (t *TCPConduit) At(addr string) transport.Pairer { return addrPairer{t, addr} }

type addrPairer struct {
	t    *TCPConduit
	addr string
}

func (p addrPairer) Pair(from, to string, offer []byte) ([]byte, error) {
	return p.t.pairAt(p.addr, from, to, offer)
}

func (t *TCPConduit) pairAt(addr, from, to string, offer []byte) ([]byte, error) {
	payload := appendAttestPayload(nil, from, to, offer)
	h, buf, err := t.pool.RoundTrip(addr, frameAttest, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrRelayUnavailable, err)
	}
	defer putFrame(buf)
	switch h.typ {
	case frameAttest:
		return append([]byte(nil), *buf...), nil
	case frameErr:
		code, msg, err := decodeErrPayload(*buf)
		if err != nil {
			return nil, fmt.Errorf("%w: bad err frame from %s: %v", ErrAttestRejected, to, err)
		}
		switch code {
		case errCodeUnavailable:
			return nil, fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrRelayUnavailable, to, msg)
		case errCodeNoSession:
			return nil, fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrNoSession, to, msg)
		}
		return nil, fmt.Errorf("%w: relay %s: %s", ErrAttestRejected, to, msg)
	default:
		return nil, fmt.Errorf("%w: unexpected frame type %d from %s", ErrAttestRejected, h.typ, to)
	}
}

// pair returns (creating on first use) the response buffer of (from, to).
func (t *TCPConduit) pair(from, to string) *pairBuf {
	key := pairKey{from, to}
	t.pairMu.RLock()
	pb, ok := t.pairBufs[key]
	t.pairMu.RUnlock()
	if ok {
		return pb
	}
	t.pairMu.Lock()
	defer t.pairMu.Unlock()
	if pb, ok = t.pairBufs[key]; !ok {
		pb = &pairBuf{}
		t.pairBufs[key] = pb
	}
	return pb
}

// Close releases the conduit's pool (only when it owns it).
func (t *TCPConduit) Close() error {
	var err error
	t.closeOnce.Do(func() {
		if t.ownsPool {
			err = t.pool.Close()
		}
	})
	return err
}

// StaticResolver builds a Resolve func from a fixed nodeID -> address map.
func StaticResolver(addrs map[string]string) func(string) (string, bool) {
	return func(id string) (string, bool) {
		a, ok := addrs[id]
		return a, ok
	}
}
