package securechan

import (
	"bytes"
	"errors"
	"testing"

	"cyclosa/internal/enclave"
)

// testEnv wires two enclaves on separate genuine platforms plus a verifier
// trusting their shared measurement.
type testEnv struct {
	ias      *enclave.IAS
	verifier *enclave.Verifier
	enclA    *enclave.Enclave
	enclB    *enclave.Enclave
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	ias := enclave.NewIAS()
	pa, err := enclave.NewPlatform("plat-a", ias)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := enclave.NewPlatform("plat-b", ias)
	if err != nil {
		t.Fatal(err)
	}
	cfg := enclave.Config{Name: "cyclosa", Version: 1}
	env := &testEnv{
		ias:   ias,
		enclA: pa.New(cfg),
		enclB: pb.New(cfg),
	}
	env.verifier = enclave.NewVerifier(ias, enclave.MeasureCode("cyclosa", 1))
	return env
}

func (e *testEnv) handshakers(t *testing.T) (*Handshaker, *Handshaker) {
	t.Helper()
	ha, err := NewHandshaker(e.enclA, e.verifier)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHandshaker(e.enclB, e.verifier)
	if err != nil {
		t.Fatal(err)
	}
	return ha, hb
}

// offers returns a fresh offer from each of a and b.
func offers(t *testing.T, a, b *Handshaker) (*HandshakeMsg, *HandshakeMsg) {
	t.Helper()
	offerA, err := a.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	offerB, err := b.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return offerA, offerB
}

func TestEstablishPairAndRoundTrip(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if sa.PeerMeasurement() != env.enclB.Measurement() {
		t.Error("session A has wrong peer measurement")
	}

	msg := []byte("GET /search?q=kidney+dialysis")
	ct, err := sa.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("kidney")) {
		t.Error("ciphertext leaks plaintext")
	}
	pt, err := sb.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("round trip = %q", pt)
	}

	// Reverse direction.
	ct2, err := sb.Encrypt([]byte("results"))
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := sa.Decrypt(ct2)
	if err != nil || string(pt2) != "results" {
		t.Fatalf("reverse direction: %q, %v", pt2, err)
	}
}

func TestReplayRejected(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sa.Encrypt([]byte("msg-0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	// Replay of the same record must fail (§VI-b).
	if _, err := sb.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("replay err = %v, want ErrDecrypt", err)
	}
}

func TestOutOfOrderAndTamperRejected(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct0, _ := sa.Encrypt([]byte("m0"))
	ct1, _ := sa.Encrypt([]byte("m1"))
	if _, err := sb.Decrypt(ct1); !errors.Is(err, ErrDecrypt) {
		t.Errorf("out-of-order err = %v", err)
	}
	ct0[len(ct0)-1] ^= 0x01
	if _, err := sb.Decrypt(ct0); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered err = %v", err)
	}
	if _, err := sb.Decrypt([]byte{1, 2}); !errors.Is(err, ErrTooShort) {
		t.Errorf("short record err = %v", err)
	}
}

func TestClosedSession(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, _, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	sa.Close()
	if _, err := sa.Encrypt([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("encrypt after close err = %v", err)
	}
	if _, err := sa.Decrypt([]byte("xxxxxxxxxx")); !errors.Is(err, ErrClosed) {
		t.Errorf("decrypt after close err = %v", err)
	}
}

func TestHandshakeRejectsUntrustedEnclave(t *testing.T) {
	env := newTestEnv(t)
	// Evil enclave on a genuine platform: IAS passes, measurement does not.
	pEvil, err := enclave.NewPlatform("plat-evil", env.ias)
	if err != nil {
		t.Fatal(err)
	}
	evil := pEvil.New(enclave.Config{Name: "evil", Version: 1})
	hEvil, err := NewHandshaker(evil, env.verifier)
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := env.handshakers(t)
	own, offer := offers(t, ha, hEvil)
	if _, err := ha.Establish(own, offer, nil, true); !errors.Is(err, ErrAttestation) {
		t.Errorf("untrusted enclave err = %v", err)
	}
}

func TestHandshakeRejectsRoguePlatform(t *testing.T) {
	env := newTestEnv(t)
	// Correct code identity but platform unknown to the IAS (no SGX).
	rogue, err := enclave.NewPlatform("rogue", nil)
	if err != nil {
		t.Fatal(err)
	}
	encl := rogue.New(enclave.Config{Name: "cyclosa", Version: 1})
	hRogue, err := NewHandshaker(encl, env.verifier)
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := env.handshakers(t)
	own, offer := offers(t, ha, hRogue)
	if _, err := ha.Establish(own, offer, nil, true); !errors.Is(err, ErrAttestation) {
		t.Errorf("rogue platform err = %v", err)
	}
}

func TestHandshakeRejectsKeySubstitution(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	own, offer := offers(t, ha, hb)
	// A man in the middle swaps the handshake key but cannot re-bind the
	// quote (report data commits to the original key).
	mitm, err := NewHandshaker(env.enclB, env.verifier)
	if err != nil {
		t.Fatal(err)
	}
	mitmOffer, err := mitm.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := &HandshakeMsg{PublicKey: mitmOffer.PublicKey, Nonce: offer.Nonce, Quote: offer.Quote}
	if _, err := ha.Establish(own, forged, nil, true); !errors.Is(err, ErrBinding) {
		t.Errorf("key substitution err = %v", err)
	}
	// Nor can it swap the nonce: the report data commits to it too.
	renonced := &HandshakeMsg{PublicKey: offer.PublicKey, Nonce: mitmOffer.Nonce, Quote: offer.Quote}
	if _, err := ha.Establish(own, renonced, nil, true); !errors.Is(err, ErrBinding) {
		t.Errorf("nonce substitution err = %v", err)
	}
	// Missing quote is also rejected.
	if _, err := ha.Establish(own, &HandshakeMsg{PublicKey: offer.PublicKey, Nonce: offer.Nonce}, nil, true); !errors.Is(err, ErrAttestation) {
		t.Errorf("missing quote err = %v", err)
	}
}

func TestHandshakeMsgMarshalRoundTrip(t *testing.T) {
	env := newTestEnv(t)
	ha, _ := env.handshakers(t)
	offer, err := ha.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := offer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalHandshakeMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.PublicKey, offer.PublicKey) {
		t.Error("public key lost in marshal round trip")
	}
	if !bytes.Equal(back.Nonce, offer.Nonce) {
		t.Error("nonce lost in marshal round trip")
	}
	if back.Quote.PlatformID != offer.Quote.PlatformID || back.Quote.Measurement != offer.Quote.Measurement ||
		back.Quote.ReportData != offer.Quote.ReportData || !bytes.Equal(back.Quote.Signature, offer.Quote.Signature) {
		t.Error("quote lost in marshal round trip")
	}
	if _, err := UnmarshalHandshakeMsg([]byte("{bad")); err == nil {
		t.Error("bad encoding should fail")
	}
	// Every proper prefix is truncated, and trailing bytes are rejected.
	for n := 0; n < len(raw); n++ {
		if _, err := UnmarshalHandshakeMsg(raw[:n]); err == nil {
			t.Fatalf("truncated message (%d/%d bytes) accepted", n, len(raw))
		}
	}
	if _, err := UnmarshalHandshakeMsg(append(raw, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A decoded offer still establishes a session.
	_, hb := env.handshakers(t)
	own, err := hb.Offer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Establish(own, back, nil, false); err != nil {
		t.Fatalf("decoded offer does not verify: %v", err)
	}
}

func TestSessionsAreIndependent(t *testing.T) {
	env := newTestEnv(t)
	ha1, hb1 := env.handshakers(t)
	sa1, _, err := EstablishPair(ha1, hb1)
	if err != nil {
		t.Fatal(err)
	}
	ha2, hb2 := env.handshakers(t)
	_, sb2, err := EstablishPair(ha2, hb2)
	if err != nil {
		t.Fatal(err)
	}
	// A record from session 1 must not decrypt in session 2 (distinct
	// handshakers hold distinct keys).
	ct, err := sa1.Encrypt([]byte("cross-session"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb2.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("cross-session decrypt err = %v", err)
	}
}

// TestReattestDerivesFreshKeys pairs the same two handshakers twice, as a
// re-attestation after a broken pair does. Each handshaker keeps its X25519
// key, so only the per-offer nonces separate the two sessions: a record
// sealed in the first must not open in the second (no cross-session
// replay), and the same plaintext at sequence 0 must seal to different
// bytes (no AES-GCM nonce reuse across sessions).
func TestReattestDerivesFreshKeys(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa1, _, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	sa2, sb2, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := sa1.Encrypt([]byte("same plaintext"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb2.Decrypt(ct1); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("record from the first session opened in the second: err = %v", err)
	}
	ct2, err := sa2.Encrypt([]byte("same plaintext"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("seq-0 records of two sessions of one pair are byte-identical: keys were reused")
	}
	if pt, err := sb2.Decrypt(ct2); err != nil || string(pt) != "same plaintext" {
		t.Fatalf("second session does not round-trip: %q, %v", pt, err)
	}
}

// TestOfferBoundToPairing: an offer commits to the binding it was made for,
// so a party that saw it cannot replay it into another pairing — say, a
// relay forwarding a client's offer to a different relay, or naming a
// different client — and the matching binding still establishes.
func TestOfferBoundToPairing(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	offer, err := ha.Offer([]byte("client->relay-1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"client->relay-2", "victim->relay-1", ""} {
		own, err := hb.Offer([]byte(other))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hb.Establish(own, offer, []byte(other), false); !errors.Is(err, ErrBinding) {
			t.Errorf("offer for client->relay-1 under binding %q: err = %v, want ErrBinding", other, err)
		}
	}
	own, err := hb.Offer([]byte("client->relay-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Establish(own, offer, []byte("client->relay-1"), false); err != nil {
		t.Fatalf("offer under its own binding: %v", err)
	}
}
