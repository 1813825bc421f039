package enclave

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
)

// Quote is the attestation evidence an enclave presents to a remote
// verifier: the enclave measurement, 64 bytes of caller-chosen report data
// (CYCLOSA binds the enclave's handshake public key and a fresh per-offer
// nonce here), and a signature by the platform's attestation key.
type Quote struct {
	// PlatformID identifies the signing platform.
	PlatformID string
	// Measurement is the attested enclave's code identity.
	Measurement Measurement
	// ReportData carries caller-bound data (e.g. a key-exchange public key
	// hash and a nonce), preventing quote replay for a different handshake.
	ReportData [64]byte
	// Signature is the platform attestation signature.
	Signature []byte
}

func (q *Quote) signedBytes() []byte {
	buf := make([]byte, 0, len(q.PlatformID)+len(q.Measurement)+len(q.ReportData))
	buf = append(buf, q.PlatformID...)
	buf = append(buf, q.Measurement[:]...)
	buf = append(buf, q.ReportData[:]...)
	return buf
}

// Attestation errors.
var (
	ErrUnknownPlatform   = errors.New("ias: unknown platform")
	ErrBadQuoteSignature = errors.New("ias: invalid quote signature")
	ErrRevokedPlatform   = errors.New("ias: platform revoked")
	ErrUntrustedEnclave  = errors.New("attestation: measurement not in known-good list")
)

// IAS simulates the Intel Attestation Service: it knows the attestation
// public keys of genuine platforms and verifies that a quote originates from
// one of them (§V-D).
type IAS struct {
	mu       sync.RWMutex
	keys     map[string]ed25519.PublicKey
	revoked  map[string]struct{}
	verified uint64
}

// NewIAS creates an empty attestation service.
func NewIAS() *IAS {
	return &IAS{
		keys:    make(map[string]ed25519.PublicKey),
		revoked: make(map[string]struct{}),
	}
}

func (s *IAS) register(platformID string, key ed25519.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[platformID] = key
}

// Revoke marks a platform as revoked (e.g. compromised attestation key);
// subsequent quotes from it fail verification.
func (s *IAS) Revoke(platformID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revoked[platformID] = struct{}{}
}

// Verify checks that the quote was signed by a genuine, non-revoked
// platform.
func (s *IAS) Verify(q *Quote) error {
	s.mu.Lock()
	key, ok := s.keys[q.PlatformID]
	_, revoked := s.revoked[q.PlatformID]
	s.verified++
	s.mu.Unlock()

	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPlatform, q.PlatformID)
	}
	if revoked {
		return fmt.Errorf("%w: %q", ErrRevokedPlatform, q.PlatformID)
	}
	if !ed25519.Verify(key, q.signedBytes(), q.Signature) {
		return ErrBadQuoteSignature
	}
	return nil
}

// Verifications returns the number of Verify calls served.
func (s *IAS) Verifications() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.verified
}

// Verifier performs the client side of CYCLOSA's remote attestation: it
// checks the quote with the IAS and compares the measurement against the
// known-good list (all enclaves must be known implementations, §V-D).
type Verifier struct {
	ias  *IAS
	good map[Measurement]struct{}
}

// NewVerifier builds a verifier trusting the given enclave measurements.
func NewVerifier(ias *IAS, knownGood ...Measurement) *Verifier {
	good := make(map[Measurement]struct{}, len(knownGood))
	for _, m := range knownGood {
		good[m] = struct{}{}
	}
	return &Verifier{ias: ias, good: good}
}

// Verify accepts a quote only if the IAS confirms platform genuineness and
// the measurement is a known implementation.
func (v *Verifier) Verify(q *Quote) error {
	if err := v.ias.Verify(q); err != nil {
		return err
	}
	if _, ok := v.good[q.Measurement]; !ok {
		return fmt.Errorf("%w: %s", ErrUntrustedEnclave, q.Measurement)
	}
	return nil
}
