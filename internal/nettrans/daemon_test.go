package nettrans

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/queries"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
)

// attestEnv is the attestation environment cooperating processes share:
// deterministic platforms derived from one secret (the stand-in for Intel
// provisioning) and a verifier trusting the CYCLOSA enclave.
type attestEnv struct {
	ias      *enclave.IAS
	verifier *enclave.Verifier
	secret   []byte
}

func newAttestEnv(secret string) *attestEnv {
	ias := enclave.NewIAS()
	return &attestEnv{
		ias:      ias,
		verifier: enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion)),
		secret:   []byte(secret),
	}
}

func (e *attestEnv) platform(id string) *enclave.Platform {
	return enclave.NewDeterministicPlatform("platform-"+id, e.secret, e.ias)
}

// testDaemon is one relay daemon as cyclosa-node runs it: a host network
// around one core node, its direct conduit served over loopback TCP.
type testDaemon struct {
	id  string
	net *core.Network
	srv *Server
}

func startTestDaemon(t *testing.T, env *attestEnv, id string, be core.Backend, admission *accounting.Limiter) *testDaemon {
	t.Helper()
	net, err := core.NewHost(core.NodeOptions{ID: id, Seed: 1}, env.platform(id), env.verifier,
		rps.NewNode(rps.NodeID(id), nil, rps.Config{}), be, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{ID: id, Handler: net.Direct(), Admission: admission})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &testDaemon{id: id, net: net, srv: srv}
}

// daemonConduit is a client-side TCP conduit resolving the daemons' IDs to
// their listen addresses.
func daemonConduit(t *testing.T, pc PoolConfig, daemons ...*testDaemon) *TCPConduit {
	t.Helper()
	addrs := make(map[string]string, len(daemons))
	for _, d := range daemons {
		addrs[d.id] = d.srv.Addr().String()
	}
	tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(addrs), PoolConfig: pc})
	t.Cleanup(func() { tcp.Close() })
	return tcp
}

// testClient is a client host network whose relays are the daemons, as
// cyclosa-node -mode client builds it. Its forwards and pairings travel
// tcp; several clients may share one conduit (and so one connection per
// daemon).
type testClient struct {
	net  *core.Network
	node *core.Node
}

func newTestClient(t *testing.T, env *attestEnv, id string, tcp *TCPConduit, daemons ...*testDaemon) testClient {
	t.Helper()
	relays := make([]rps.NodeID, len(daemons))
	for i, d := range daemons {
		relays[i] = rps.NodeID(d.id)
	}
	net, err := core.NewHost(core.NodeOptions{ID: id, Seed: 2}, env.platform(id), env.verifier,
		rps.NewNode(rps.NodeID(id), relays, rps.Config{}), nil, tcp)
	if err != nil {
		t.Fatal(err)
	}
	return testClient{net: net, node: net.Node(id)}
}

// forward runs one forward round trip to relay, with no retry.
func (c testClient) forward(relay, query string) error {
	return c.net.RelayRoundTrip(c.node, relay, query, time.Now())
}

// countCloses counts session halves closed while the test runs.
func countCloses(t *testing.T) *atomic.Int64 {
	t.Helper()
	var closes atomic.Int64
	securechan.SetCloseObserver(func(*securechan.Session) { closes.Add(1) })
	t.Cleanup(func() { securechan.SetCloseObserver(nil) })
	return &closes
}

func testEngine() *searchengine.Engine {
	return searchengine.New(queries.NewUniverse(queries.UniverseConfig{Seed: 7}), searchengine.Config{Seed: 7})
}

// TestServiceMultiplexedQueries drives many concurrent searches from eight
// client nodes sharing one pooled connection to the daemon: frame stream
// IDs multiplex their exchanges while each pair's records stay strictly
// ordered.
func TestServiceMultiplexedQueries(t *testing.T) {
	env := newAttestEnv("svc-secret")
	d := startTestDaemon(t, env, "daemon-under-test", testEngine(), nil)
	tcp := daemonConduit(t, PoolConfig{ID: "test-client", RequestTimeout: 10 * time.Second}, d)

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 7})
	travel := uni.Topic("travel")

	const workers, perWorker = 8, 20
	var answered atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		c := newTestClient(t, env, fmt.Sprintf("client-%d", w), tcp, d)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := travel.Terms[(w+i)%len(travel.Terms)] + " " + travel.Terms[(w+i+1)%len(travel.Terms)]
				res, err := c.node.Search(q, time.Now())
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				if res.RealRelay != d.id || len(res.Results) == 0 {
					errs <- fmt.Errorf("worker %d query %d: relay %q, %d results", w, i, res.RealRelay, len(res.Results))
					return
				}
				answered.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := answered.Load(); got != workers*perWorker {
		t.Fatalf("answered %d queries, want %d", got, workers*perWorker)
	}
	if frames := tcp.WriteStats().Frames; frames == 0 {
		t.Fatal("no frames went over the pooled connection")
	}
}

// TestServiceAttestationRejected: a client provisioned under a different
// attestation secret is refused at pairing, with ErrAttestRejected, and
// its searches never reach the engine.
func TestServiceAttestationRejected(t *testing.T) {
	eng := testEngine()
	d := startTestDaemon(t, newAttestEnv("secret-a"), "daemon-a", eng, nil)
	envB := newAttestEnv("secret-b")
	tcp := daemonConduit(t, PoolConfig{ID: "client"}, d)
	c := newTestClient(t, envB, "client", tcp, d)

	if _, err := c.node.Attest(tcp, d.id); !errors.Is(err, ErrAttestRejected) {
		t.Fatalf("pairing err = %v, want ErrAttestRejected", err)
	}
	if _, err := c.node.Search("travel plans", time.Now()); err == nil {
		t.Fatal("search through a relay that refused attestation succeeded")
	}
	if n := eng.QueryCount(); n != 0 {
		t.Fatalf("engine saw %d queries from an unattested client", n)
	}
}

// stallBackend blocks every query containing "stall" until release is
// closed, announcing each arrival on entered.
type stallBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b stallBackend) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	if strings.Contains(query, "stall") {
		b.entered <- struct{}{}
		<-b.release
	}
	return []searchengine.Result{{Title: "t", URL: "https://x"}}, nil
}

// TestServiceDroppedConnClosesBothSessionHalves: when the TCP connection
// drops under an in-flight forward, the record's fate is unknown, so the
// pair breaks: the client closes its half at once, the relay closes its
// half with the connection it was paired on, and the retry re-attests over
// a fresh connection. The new session starts its nonces at zero.
func TestServiceDroppedConnClosesBothSessionHalves(t *testing.T) {
	closes := countCloses(t)
	var seqMu sync.Mutex
	firstSeq := make(map[*securechan.Session]uint64)
	securechan.SetNonceObserver(func(s *securechan.Session, send bool, seq uint64) {
		if !send {
			return
		}
		seqMu.Lock()
		if _, ok := firstSeq[s]; !ok {
			firstSeq[s] = seq
		}
		seqMu.Unlock()
	})
	defer securechan.SetNonceObserver(nil)

	env := newAttestEnv("drop-secret")
	be := stallBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	d := startTestDaemon(t, env, "drop-daemon", be, nil)
	tcp := daemonConduit(t, PoolConfig{ID: "client"}, d)
	c := newTestClient(t, env, "client", tcp, d)
	if err := c.forward(d.id, "first query before the drop"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- c.forward(d.id, "stall under the drop") }()
	<-be.entered
	// Cut every connection out from under the exchange — no goodbye,
	// exactly like a crashed peer or a cut link.
	d.srv.mu.Lock()
	for fc := range d.srv.conns {
		fc.c.Close()
	}
	d.srv.mu.Unlock()
	close(be.release)
	if err := <-done; !errors.Is(err, core.ErrRelayUnavailable) {
		t.Fatalf("forward under a dropped connection: err = %v, want ErrRelayUnavailable", err)
	}
	waitFor(t, "both session halves closed after the drop", func() bool { return closes.Load() == 2 })
	if d.net.Node(d.id).SessionCount() != 0 {
		t.Fatal("relay kept a session of a closed connection")
	}

	if err := c.forward(d.id, "query after reconnect"); err != nil {
		t.Fatalf("forward after reconnect: %v", err)
	}
	if n := closes.Load(); n != 2 {
		t.Fatalf("after re-attesting: %d session halves closed, want 2", n)
	}
	seqMu.Lock()
	defer seqMu.Unlock()
	for s, seq := range firstSeq {
		if seq != 0 {
			t.Fatalf("session %p started sending at seq %d, want 0 (leaked nonce state)", s, seq)
		}
	}
}

// TestServiceRejectsQueryBeforeAttestation: a data frame from a sender the
// relay never paired with is refused no-session without reaching the
// engine.
func TestServiceRejectsQueryBeforeAttestation(t *testing.T) {
	eng := testEngine()
	d := startTestDaemon(t, newAttestEnv("order-secret"), "order-daemon", eng, nil)

	pool := NewPool(PoolConfig{ID: "rogue", RequestTimeout: 2 * time.Second})
	defer pool.Close()
	meta := appendDataMeta(nil, time.Now().UnixNano(), "rogue", d.id, 24)
	h, buf, err := pool.RoundTrip(d.srv.Addr().String(), frameData, meta, []byte("not even encrypted......"))
	if err != nil {
		t.Fatal(err)
	}
	defer putFrame(buf)
	if h.typ != frameErr {
		t.Fatalf("unattested record answered with frame type %d", h.typ)
	}
	if code, _, _ := decodeErrPayload(*buf); code != errCodeNoSession {
		t.Fatalf("err code %d, want no-session", code)
	}
	if n := eng.QueryCount(); n != 0 {
		t.Fatalf("engine saw %d queries from an unattested sender", n)
	}
}

// recordingPairer remembers the last offer it carried.
type recordingPairer struct {
	inner *TCPConduit
	offer []byte
}

func (p *recordingPairer) Pair(from, to string, offer []byte) ([]byte, error) {
	p.offer = append([]byte(nil), offer...)
	return p.inner.Pair(from, to, offer)
}

// TestSecondConnectionCannotHijackSession: a relay's session belongs to
// the connection it was paired on. A peer on another connection that
// claims the victim's ID — over its quota, so its records take the shed
// path — cannot advance the victim's receive counter, cannot re-pair the
// victim's session with an enclave of its own, and cannot replay the
// victim's offer to another relay or under another name. The victim keeps
// its pair and blacklists nobody.
func TestSecondConnectionCannotHijackSession(t *testing.T) {
	env := newAttestEnv("hijack-secret")
	d, _, clk := startThrottledDaemon(t, env, 1, 1)
	d2 := startTestDaemon(t, env, "other-daemon", testEngine(), nil)
	tcp := daemonConduit(t, PoolConfig{ID: "victim-pool"}, d, d2)
	victim := newTestClient(t, env, "victim", tcp, d)
	if err := victim.forward(d.id, "victim query before the attack"); err != nil {
		t.Fatal(err)
	}
	closes := countCloses(t)

	attackerTCP := daemonConduit(t, PoolConfig{ID: "attacker-pool"}, d, d2)
	addr := d.srv.Addr().String()
	// The victim's next receive sequence number is 1; try the first few.
	// The first frame spends the attacker's burst, the rest are shed.
	for seq := byte(0); seq < 4; seq++ {
		record := append([]byte{0, 0, 0, 0, 0, 0, 0, seq}, []byte("forged record body......")...)
		meta := appendDataMeta(nil, time.Now().UnixNano(), "victim", d.id, len(record))
		h, buf, err := attackerTCP.pool.RoundTrip(addr, frameData, meta, record)
		if err != nil {
			t.Fatal(err)
		}
		code, _, _ := decodeErrPayload(*buf)
		if h.typ != frameErr || code != errCodeNoSession {
			t.Fatalf("forged record with seq %d: frame type %d code %d, want no-session err", seq, h.typ, code)
		}
		putFrame(buf)
	}

	// An enclave of the attacker's own, claiming the victim's ID, cannot
	// replace the victim's session from another connection.
	impostor := newTestClient(t, env, "victim", attackerTCP, d)
	if _, err := impostor.node.Attest(attackerTCP, d.id); !errors.Is(err, core.ErrNoSession) {
		t.Fatalf("impostor pairing: err = %v, want core.ErrNoSession", err)
	}

	// The victim's offer, seen by the relay it was meant for, opens
	// nothing elsewhere: not at another relay, not under another name.
	rec := &recordingPairer{inner: tcp}
	if _, err := victim.node.Attest(rec, d2.id); err != nil {
		t.Fatal(err)
	}
	if _, err := attackerTCP.Pair("victim", d.id, rec.offer); !errors.Is(err, ErrAttestRejected) {
		t.Fatalf("victim's offer for %s replayed to %s: err = %v, want ErrAttestRejected", d2.id, d.id, err)
	}
	if _, err := attackerTCP.Pair("someone-else", d2.id, rec.offer); !errors.Is(err, ErrAttestRejected) {
		t.Fatalf("victim's offer replayed under another name: err = %v, want ErrAttestRejected", err)
	}

	closesBefore := closes.Load()
	clk.Advance(10 * time.Second) // refill the victim's own bucket
	if err := victim.forward(d.id, "victim query after the attack"); err != nil {
		t.Fatalf("victim forward after the attack: %v", err)
	}
	if n := closes.Load(); n != closesBefore {
		t.Fatalf("victim's forward closed %d session halves: its pair was broken", n-closesBefore)
	}
	if st := victim.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 {
		t.Fatalf("victim charged an honest relay: %+v", st)
	}
	if n := d.net.Node(d.id).SessionCount(); n != 1 {
		t.Fatalf("relay holds %d sessions, want the victim's 1", n)
	}
}

// TestClientRepairsAfterDaemonRestart: a daemon that restarts under the
// same ID has lost every session. The client's next forward is answered
// no-session; the client re-pairs and resends at once, and blacklists
// nobody.
func TestClientRepairsAfterDaemonRestart(t *testing.T) {
	env := newAttestEnv("restart-secret")
	eng := testEngine()
	d := startTestDaemon(t, env, "restarting-daemon", eng, nil)
	var mu sync.Mutex
	addrs := map[string]string{d.id: d.srv.Addr().String()}
	tcp := NewTCPConduit(ConduitConfig{
		Resolve: func(id string) (string, bool) {
			mu.Lock()
			defer mu.Unlock()
			a, ok := addrs[id]
			return a, ok
		},
		PoolConfig: PoolConfig{ID: "client"},
	})
	t.Cleanup(func() { tcp.Close() })
	c := newTestClient(t, env, "client", tcp, d)
	if _, err := c.node.Search("before the restart", time.Now()); err != nil {
		t.Fatal(err)
	}

	d.srv.Close()
	restarted := startTestDaemon(t, env, d.id, eng, nil)
	mu.Lock()
	addrs[d.id] = restarted.srv.Addr().String()
	mu.Unlock()

	res, err := c.node.Search("after the restart", time.Now())
	if err != nil {
		t.Fatalf("search after the restart: %v", err)
	}
	if res.RealRelay != d.id {
		t.Fatalf("real relay %q, want %q", res.RealRelay, d.id)
	}
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 {
		t.Fatalf("restart charged the relay: %+v", st)
	}
	if n := restarted.net.Node(d.id).SessionCount(); n != 1 {
		t.Fatalf("restarted daemon holds %d sessions, want 1", n)
	}
}

// TestServiceServerCloseClosesSessions: the server's graceful teardown also
// releases every responder session half, since each belongs to a
// connection and Close ends them all.
func TestServiceServerCloseClosesSessions(t *testing.T) {
	closes := countCloses(t)
	env := newAttestEnv("close-secret")
	d := startTestDaemon(t, env, "closing-daemon", testEngine(), nil)
	tcp := daemonConduit(t, PoolConfig{ID: "client"}, d)
	c := newTestClient(t, env, "client", tcp, d)
	if err := c.forward(d.id, "before close"); err != nil {
		t.Fatal(err)
	}
	d.srv.Close()
	waitFor(t, "relay session closed with the server", func() bool {
		return d.net.Node(d.id).SessionCount() == 0 && closes.Load() == 1
	})
	if err := c.forward(d.id, "after close"); err == nil {
		t.Fatal("forward after server close succeeded")
	}
}
