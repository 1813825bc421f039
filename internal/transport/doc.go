// Package transport models the network substrate of the evaluation — and
// defines the Conduit seam every real or simulated data plane slots into.
//
// # Latency model
//
// Per-link latency distributions for the simulated deployments (Fig 8a/8b)
// and a virtual clock so that long simulated horizons (the 90-minute load
// run of Fig 8d) execute instantly. The paper measures end-to-end latencies
// on physical machines; absolute values here come from a calibrated model
// instead (medians chosen to match Fig 8a: direct ≈ 0.58 s, CYCLOSA
// ≈ 0.88 s, TOR ≈ 62 s), but the shape of the comparison — which system is
// faster, by what factor, how latency grows with k — is reproduced by
// construction of the same message paths.
//
// # The WAN matrix
//
// WANMatrix is the planet-scale counterpart: nodes hash into five
// geographic regions, each region pair carries an empirical one-way base
// latency and loss probability, and every delivery adds a heavy-tailed
// Pareto jitter draw from a splitmix64 stream keyed by (seed, link,
// delivery index) — latencies and losses are pure functions of the seed.
// WANConduit layers the matrix over any inner Conduit (RTT as injected
// latency, loss as ErrLinkLost); internal/simnet accepts the same matrix
// directly so WAN conditions compose with the fault catalog.
//
// # The Conduit seam
//
// Conduit is the delivery boundary of the forward data plane: one encrypted
// request record in, one encrypted response record out. core.Network
// installs a direct in-process conduit by default; internal/simnet wraps any
// conduit with deterministic fault injection; internal/nettrans implements
// it over real TCP sockets. Because the seam composes, the chaos catalog
// and every protocol invariant checker run unchanged over loopback TCP.
//
// The ownership contract (documented on Conduit and audited at runtime by
// NewOwnershipChecker): the request payload may be read only for the
// duration of the call — it aliases the caller's per-pair scratch; the
// returned response is valid only until the next delivery between the same
// pair and must be consumed before then. Use the checker in tests of every
// new Conduit implementation — it caught real aliasing bugs in the TCP one.
//
// Pairer is the matching attestation seam: one handshake offer out, the
// relay's answer back. A conduit that also implements Pairer (the TCP one)
// lets core attest relays in other processes; core pairs in process
// otherwise.
package transport
