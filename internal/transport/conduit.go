package transport

import "time"

// Conduit is the delivery seam of the forward data plane: it carries one
// encrypted request record from a client node to a relay node and returns
// the relay's encrypted response record. core.Network installs a direct
// in-process conduit by default; internal/simnet wraps it with a
// deterministic fault-injection layer (crashes, partitions, tampering,
// replay, Byzantine responses) without the protocol code knowing.
//
// The injected duration is extra link latency to charge to the path on top
// of the model-sampled latency (zero for the direct conduit); it lets a
// wrapper express latency spikes without sleeping.
//
// Ownership: payload may be mutated or retained only for the duration of
// the call (it aliases the caller's per-pair scratch buffer); the returned
// response is valid only until the next delivery between the same pair and
// must be consumed before then, exactly like the relay-owned scratch it
// usually points into. OwnershipChecker wraps any implementation and audits
// this contract at runtime — use it in tests of new Conduit implementations.
type Conduit interface {
	Deliver(from, to string, payload []byte, now time.Time) (resp []byte, injected time.Duration, err error)
}

// Pairer is the attestation seam beside Conduit: it carries one client's
// handshake offer to a relay and returns the relay's answer. The relay
// verifies the offer, installs its half of the attested session for from,
// and answers with its own offer; the caller verifies the answer and keeps
// the other half. A Pairer must only answer for the relay named by to —
// that check is what binds a gossiped identity to the endpoint serving it.
//
// Ownership: offer is read only for the duration of the call; the answer
// belongs to the caller.
type Pairer interface {
	Pair(from, to string, offer []byte) (answer []byte, err error)
}
