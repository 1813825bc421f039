package securechan

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"cyclosa/internal/enclave"
	"cyclosa/internal/wire"
)

// Handshake errors.
var (
	ErrAttestation = errors.New("securechan: peer attestation failed")
	ErrBinding     = errors.New("securechan: quote not bound to handshake key")
)

// NonceSize is the length of the fresh random nonce every offer carries.
const NonceSize = 32

// HandshakeMsg is one attested key-exchange message: the sender's X25519
// public key, a fresh per-offer nonce, and a quote whose report data
// commits to both and to the pairing's binding (see Offer). It is the
// simulated analogue of CYCLOSA's challenge/quote exchange (§V-D).
type HandshakeMsg struct {
	// PublicKey is the sender's X25519 public key. It is long-lived: one
	// key per handshaker, reused across every pairing it takes part in.
	PublicKey []byte
	// Nonce is NonceSize random bytes drawn for this offer alone. Both
	// nonces enter the key-derivation transcript, so re-attesting the same
	// two handshakers yields fresh session keys.
	Nonce []byte
	// Quote attests the sender's enclave; its report data is SHA-256 of
	// PublicKey and the pairing's binding, followed by Nonce.
	Quote *enclave.Quote
}

// Wire layout of a handshake message (binary, internal/wire fields):
//
//	ver(1B) publicKey(bytes) nonce(bytes) hasQuote(1B)
//	[platformID(str) measurement(32B) reportData(64B) signature(bytes)]
const (
	handshakeWireVersion = 1
	maxHandshakeField    = 1 << 10
)

// Marshal encodes the message for the wire.
func (m *HandshakeMsg) Marshal() ([]byte, error) {
	dst := make([]byte, 0, 256)
	dst = append(dst, handshakeWireVersion)
	dst = wire.AppendBytes(dst, m.PublicKey)
	dst = wire.AppendBytes(dst, m.Nonce)
	if m.Quote == nil {
		return append(dst, 0), nil
	}
	q := m.Quote
	dst = append(dst, 1)
	dst = wire.AppendString(dst, q.PlatformID)
	dst = append(dst, q.Measurement[:]...)
	dst = append(dst, q.ReportData[:]...)
	return wire.AppendBytes(dst, q.Signature), nil
}

// UnmarshalHandshakeMsg decodes a wire message. The result does not alias
// data.
func UnmarshalHandshakeMsg(data []byte) (*HandshakeMsg, error) {
	m, err := unmarshalHandshakeMsg(data)
	if err != nil {
		return nil, fmt.Errorf("handshake msg: %w", err)
	}
	return m, nil
}

func unmarshalHandshakeMsg(data []byte) (*HandshakeMsg, error) {
	if len(data) < 1 {
		return nil, wire.ErrTruncated
	}
	if data[0] != handshakeWireVersion {
		return nil, fmt.Errorf("unknown version %d", data[0])
	}
	pub, data, err := wire.ConsumeBytes(data[1:], maxHandshakeField)
	if err != nil {
		return nil, err
	}
	nonce, data, err := wire.ConsumeBytes(data, maxHandshakeField)
	if err != nil {
		return nil, err
	}
	if len(data) < 1 {
		return nil, wire.ErrTruncated
	}
	m := &HandshakeMsg{PublicKey: bytes.Clone(pub), Nonce: bytes.Clone(nonce)}
	hasQuote := data[0]
	data = data[1:]
	if hasQuote == 1 {
		q := &enclave.Quote{}
		if q.PlatformID, data, err = wire.ConsumeString(data, maxHandshakeField); err != nil {
			return nil, err
		}
		if len(data) < len(q.Measurement)+len(q.ReportData) {
			return nil, wire.ErrTruncated
		}
		data = data[copy(q.Measurement[:], data):]
		data = data[copy(q.ReportData[:], data):]
		sig, rest, err := wire.ConsumeBytes(data, maxHandshakeField)
		if err != nil {
			return nil, err
		}
		q.Signature, data = bytes.Clone(sig), rest
		m.Quote = q
	} else if hasQuote != 0 {
		return nil, fmt.Errorf("bad quote flag %d", hasQuote)
	}
	if len(data) != 0 {
		return nil, errors.New("trailing bytes")
	}
	return m, nil
}

// Handshaker drives one side of the attested key exchange for one enclave.
// Its X25519 key pair is created once; what makes each session's keys
// fresh is the pair of per-offer nonces in the transcript (see Establish).
type Handshaker struct {
	encl     *enclave.Enclave
	verifier *enclave.Verifier
	priv     *ecdh.PrivateKey
}

// NewHandshaker creates a handshaker: the key pair is generated "inside"
// the enclave, and each Offer binds its public half and a fresh nonce into
// a new quote. The verifier carries the known-good measurement list used to
// judge the peer.
func NewHandshaker(encl *enclave.Enclave, verifier *enclave.Verifier) (*Handshaker, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("handshake keygen: %w", err)
	}
	return &Handshaker{encl: encl, verifier: verifier, priv: priv}, nil
}

// Offer produces this side's handshake message for one pairing: a fresh
// nonce, bound with the public key and binding into a new quote. binding
// names what the pairing is for (core binds the two node identities), so
// an offer made for one pairing cannot be replayed into another: the
// other side verifies it against its own binding. Pass the same message
// as own, and the same binding, to the Establish call that completes this
// pairing.
func (h *Handshaker) Offer(binding []byte) (*HandshakeMsg, error) {
	nonce := make([]byte, NonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("handshake nonce: %w", err)
	}
	pub := h.priv.PublicKey().Bytes()
	quote, err := h.encl.Quote(reportData(pub, binding, nonce))
	if err != nil {
		return nil, fmt.Errorf("handshake quote: %w", err)
	}
	return &HandshakeMsg{PublicKey: pub, Nonce: nonce, Quote: quote}, nil
}

// reportData is what a quote commits to: SHA-256 of the length-prefixed
// public key and the binding, then the offer's nonce.
func reportData(pub, binding, nonce []byte) []byte {
	d := sha256.New()
	d.Write(wire.AppendBytes(nil, pub))
	d.Write(binding)
	return append(d.Sum(nil), nonce...)
}

// verifyPeer checks the peer's quote (IAS + known-good measurement) and its
// binding to the peer's handshake key, nonce and the pairing's binding.
func (h *Handshaker) verifyPeer(peer *HandshakeMsg, binding []byte) error {
	if peer.Quote == nil {
		return ErrAttestation
	}
	if err := h.verifier.Verify(peer.Quote); err != nil {
		return fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	if len(peer.Nonce) != NonceSize || !bytes.Equal(peer.Quote.ReportData[:], reportData(peer.PublicKey, binding, peer.Nonce)) {
		return ErrBinding
	}
	return nil
}

// Establish completes one pairing: own is the offer this side sent (or will
// send) for it, peer the other side's, binding the value both offers were
// made for (a peer offer made for another binding fails with ErrBinding).
// initiator must be true on exactly one side; both sides derive the same
// directional keys, assigned by role. The transcript holds both public
// keys, both nonces and the binding, so no two pairings share keys even
// when the same two handshakers pair again.
func (h *Handshaker) Establish(own, peer *HandshakeMsg, binding []byte, initiator bool) (*Session, error) {
	if err := h.verifyPeer(peer, binding); err != nil {
		return nil, err
	}
	peerPub, err := ecdh.X25519().NewPublicKey(peer.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("peer public key: %w", err)
	}
	shared, err := h.priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("ecdh: %w", err)
	}

	// Transcript binds both public keys, both nonces and the binding in a
	// role-independent order: initiator first.
	first, second := own, peer
	if !initiator {
		first, second = peer, own
	}
	tr := sha256.New()
	tr.Write(first.PublicKey)
	tr.Write(second.PublicKey)
	tr.Write(first.Nonce)
	tr.Write(second.Nonce)
	tr.Write(binding)
	initKey, respKey := deriveKeys(shared, tr.Sum(nil))

	if initiator {
		return newSession(initKey, respKey, peer.Quote.Measurement)
	}
	return newSession(respKey, initKey, peer.Quote.Measurement)
}

// EstablishPair runs the full handshake between two enclaves in-process and
// returns the two session ends (a, b), a the initiator. The offers carry no
// binding: nothing else can see them to replay.
func EstablishPair(a, b *Handshaker) (*Session, *Session, error) {
	offerA, err := a.Offer(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("offer a: %w", err)
	}
	offerB, err := b.Offer(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("offer b: %w", err)
	}
	sa, err := a.Establish(offerA, offerB, nil, true)
	if err != nil {
		return nil, nil, fmt.Errorf("establish a: %w", err)
	}
	sb, err := b.Establish(offerB, offerA, nil, false)
	if err != nil {
		return nil, nil, fmt.Errorf("establish b: %w", err)
	}
	return sa, sb, nil
}
