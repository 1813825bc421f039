// Package nettrans is the real-socket data plane of the reproduction: a
// production-grade TCP transport that slots under the protocol through the
// transport.Conduit and transport.Pairer seams, so core.Network, the
// workload engine and the chaos/invariant machinery all run unchanged over
// real connections, and a node attests relays in other processes over the
// same connections. It is the one wire plane of the cyclosa-node daemons
// and clients.
//
// # Frame protocol (version 2)
//
// Every message on a connection is one frame: a fixed 16-byte header
// followed by a length-prefixed payload.
//
//	header := magic(2B 0xC7 0x5A) ver(1B) type(1B) streamID(8B) length(4B)
//
// streamID multiplexes many in-flight exchanges over one connection: each
// request frame carries a fresh stream identifier and the matching response
// frame echoes it, so a client never has to serialize round trips on the
// socket. length is the payload size; frames longer than the limit
// (DefaultMaxFrame, covering the 1 MiB encrypted-record bound plus envelope
// slack) are rejected before any allocation based on them, as are frames
// with a bad magic, an unknown version or an unknown type. Frame payloads
// use the internal/wire primitives (uvarint length-prefixed fields,
// big-endian fixed fields), the same codec vocabulary as the enclave gate
// frames.
//
// Frame types:
//
//	hello  := proto(1B) id(str)              — connection preamble, both ways
//	data   := nowNano(8B) from(str) to(str) record(bytes)   — conduit request
//	resp   := injectedNano(8B) record(bytes)                — conduit response
//	err    := code(1B) msg(str)                             — failed exchange
//	attest := from(str) to(str) offer(bytes) out, answer back — pairing
//	goaway := (empty)                        — server draining, stop opening streams
//	gossip := view buffer (rps wire format)  — membership exchange, both directions
//	view   := (empty) out, JSON ViewSnapshot back           — introspection
//	accounting := ledger state (PN counters) — misbehavior-ledger exchange
//
// Types 6, 7, 11 and 12 carried version 1's attested query service
// (query, answer, querybatch, answerbatch). They are retired and reserved:
// never reassigned, and rejected like unknown types. Err codes: 1
// unavailable (core.ErrRelayUnavailable at the conduit), 2 rejected
// (relay misbehavior; ErrAttestRejected on an attest frame), 3 throttled
// (accounting.ErrClientThrottled), 4 no-session (core.ErrNoSession: the
// relay holds no session for the pair on this connection and opened
// nothing; the client re-pairs and blacklists nobody).
//
// A gossip frame's payload is an rps view buffer
// (`ver | count | {id | addr | age}*`, see internal/rps/wire.go): the
// initiator sends its exchange buffer, the passive side replies with its
// own on the same stream.
//
// # The write path
//
// Every connection's writes run through a coalescing group-commit
// scheduler: writers append encoded frames to a pending batch under the
// connection write lock, the first writer into an idle queue becomes the
// flush leader, and the leader puts the whole batch on the socket in one
// write. Before detaching a batch the leader briefly yields the processor
// so writers that are already runnable can join it — without that
// cooperative linger, coalescing never engages on transports whose writes
// do not block (loopback TCP). A lone writer still flushes immediately; a
// flush failure is sticky and poisons every queued and future write; the
// write deadline is disarmed when the queue goes idle. Tuning lives on
// PoolConfig/ServerConfig: NoCoalesce (one flush per frame,
// the A/B benchmark baseline), CoalesceMaxBytes (pending-batch bound,
// writers beyond it block) and CoalesceDelay (optional wall-clock linger,
// default 0). WriteStats exposes flushes/frames/bytes — frames-per-flush
// is the contention proxy BENCH_net.json reports.
//
// # Components
//
// Server owns the listen socket: per-connection read loops with idle
// deadlines and frame limits, bounded in-flight dispatch (a semaphore; a
// flooding client blocks on its own connection rather than exhausting the
// process) and graceful drain on Close (stop accepting, send goaway, let
// in-flight exchanges finish, then close).
//
// Pool owns the client side: one entry per peer address, dial-on-demand,
// reconnection with exponential backoff (a peer in backoff fails fast
// instead of re-dialing on every request), idle reaping, and bounded
// pending-stream backpressure per connection.
//
// TCPConduit implements transport.Conduit over a Pool: Deliver writes the
// encrypted record as a data frame (copied to the socket during the call,
// never retained) and copies the response record into a per-pair buffer, so
// the returned slice stays valid until the next delivery between the same
// pair — exactly the ownership contract documented on transport.Conduit.
// Because the conduit seam composes, internal/simnet can wrap a TCPConduit
// (core.NetworkOptions.Conduit: first the TCP layer, then sim.Wrap) and run
// the whole chaos catalog plus invariant checkers over real sockets; see
// simnet.ChaosOptions.Transport.
//
// # Pairing and admission
//
// TCPConduit also implements transport.Pairer: Pair sends one attest frame
// (from | to | offer) and returns the relay's answer, so a core.Network
// built over the conduit attests relays in other processes with the same
// handshake it runs in process. The server hands attest frames to its
// Handler when the Handler is a Pairer (core.Network.Direct is), on a
// dispatch slot like a data exchange. A relay answers only for its own
// node ID, so a pairing addressed to an identity the endpoint does not
// serve fails — which binds a gossiped identity to its address. Both
// offers commit to the pair's two identities (in the quote's report data
// and the key transcript), so an offer cannot be replayed to another relay
// or under another client's name. Transport failures are
// core.ErrRelayUnavailable; a refused offer is ErrAttestRejected.
// TCPConduit.At pairs with a fixed address, before the peer resolves: the
// attestation directory's path.
//
// A relay session belongs to the connection it was paired on. When the
// Handler opens scopes (core.Network.Direct does), the server gives each
// connection its own core.Scope: that connection's records are served
// only by sessions paired on it, only a pairing on it replaces them, and
// they are closed when it ends. A peer on another connection that names a
// client it is not gets no-session answers and cannot touch the client's
// session; one connection holds a bounded number of sessions. A client
// whose session is gone — the daemon restarted, or the connection closed
// — is answered no-session, re-pairs and resends once.
//
// ServerConfig.Admission rate-limits data frames per client, keyed by the
// connection's hello identity, in the read loop before dispatch. An
// over-quota record is not opened: the Handler skips its sequence number
// in the relay's session for the sender (securechan.Session.Skip through
// core.Network.Direct), so the strict counter-nonce session stays in step,
// and the client gets a throttled err frame. The skip reaches only a
// session paired on the same connection, so a record's unauthenticated
// sequence prefix can advance no one else's counter.
//
// Every served data frame leaves one "serve" trace and its timings in the
// cyclosa_nettrans_serve_* families: deliver (the relay's forward ecall)
// and write. The relay sees only sealed records, so real and fake forwards
// leave records of the same shape.
//
// # Membership: the gossip control plane
//
// Membership turns a daemon into a self-organizing overlay node: an
// internal/rps peer-sampling node whose exchange buffers travel as gossip
// frames over the connection pool, plus an attestation directory that
// re-attests every peer entering the view (AttestFunc; verification
// failures — ErrAttestRejected — blacklist the peer, transport failures
// merely evict it with re-entry allowed) and resolves node IDs to verified
// addresses for the data plane (Membership.Resolve plugs straight into
// ConduitConfig.Resolve). Bootstrap joins through seed addresses only and
// fails with ErrNoSeed when none answers; a view emptied by failures
// re-bootstraps from the same seeds. Blacklisted peers are
// gossip-suppressed end to end: never re-admitted on merge, never
// forwarded in buffers, and their inbound exchanges are refused. FetchView
// is the matching introspection client (`cyclosa-node -mode view`).
package nettrans
