package nettrans

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
)

func TestHelloPayloadRejectsHostileInput(t *testing.T) {
	if _, err := decodeHelloPayload(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
	if _, err := decodeHelloPayload([]byte{ProtoVersion + 1, 0}); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("wrong-proto hello err = %v, want ErrFrameVersion", err)
	}
	good := appendHelloPayload(nil, "id")
	if _, err := decodeHelloPayload(append(good, 0xFF)); err == nil {
		t.Fatal("hello with trailing garbage accepted")
	}
	if _, err := decodeHelloPayload(good[:2]); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestErrPayloadTruncatesOversizedMessage(t *testing.T) {
	huge := strings.Repeat("x", maxErrMsgLen+100)
	code, msg, err := decodeErrPayload(appendErrPayload(nil, errCodeRejected, huge))
	if err != nil || code != errCodeRejected {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if len(msg) != maxErrMsgLen {
		t.Fatalf("msg length %d, want truncation to %d", len(msg), maxErrMsgLen)
	}
}

// flakyBackend fails queries containing "refuse" and stalls on "stall".
type flakyBackend struct{ stall time.Duration }

func (b flakyBackend) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	if strings.Contains(query, "refuse") {
		return nil, searchengine.ErrRateLimited
	}
	if strings.Contains(query, "stall") && b.stall > 0 {
		time.Sleep(b.stall)
	}
	return []searchengine.Result{{Title: "t", URL: "https://x"}}, nil
}

// startFlakyDaemon serves a relay daemon over the flaky backend and
// returns a client node paired through pc's pool.
func startFlakyDaemon(t *testing.T, be core.Backend, pc PoolConfig) (*testDaemon, testClient) {
	t.Helper()
	env := newAttestEnv("flaky")
	d := startTestDaemon(t, env, "flaky-daemon", be, nil)
	pc.ID = "flaky-client"
	return d, newTestClient(t, env, "flaky-client", daemonConduit(t, pc, d), d)
}

// TestServiceEngineRefusalSurfacesCleanly: a backend refusal travels back
// as the search's EngineError — the transport worked, the engine said no —
// and the pair keeps serving without a new handshake.
func TestServiceEngineRefusalSurfacesCleanly(t *testing.T) {
	_, c := startFlakyDaemon(t, flakyBackend{}, PoolConfig{})
	if err := c.forward("flaky-daemon", "warm the pair"); err != nil {
		t.Fatal(err)
	}
	closes := countCloses(t)

	res, err := c.node.Search("please refuse this", time.Now())
	if err != nil || res.EngineError == nil {
		t.Fatalf("refusal: err = %v, engine error = %v, want an engine error only", err, res.EngineError)
	}
	res, err = c.node.Search("a good query", time.Now())
	if err != nil || res.EngineError != nil || len(res.Results) != 1 {
		t.Fatalf("pair did not survive the refusal: %+v, %v", res, err)
	}
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d session halves closed: the refusal broke the pair", n)
	}
	if st := c.node.Stats(); st.Blacklisted != 0 {
		t.Fatalf("an honest relay was blacklisted for its engine: %+v", st)
	}
}

// TestServiceEngineClassSurvivesWire: when the daemon's backend is the
// resilience stack, the typed failure class (here a watchdog timeout)
// travels the sealed response inside the engine-error string and the
// client recovers it — callers can errors.Is the backend taxonomy.
func TestServiceEngineClassSurvivesWire(t *testing.T) {
	stack := backend.NewStack(flakyBackend{stall: 300 * time.Millisecond}, backend.Policy{
		Timeout:    30 * time.Millisecond,
		MaxRetries: -1, // clamped to 0: the timeout must surface, not retry
	})
	_, c := startFlakyDaemon(t, stack, PoolConfig{})
	res, err := c.node.Search("stall me", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.EngineError, backend.ErrEngineTimeout) {
		t.Fatalf("engine error = %v lost the taxonomy class, want backend.ErrEngineTimeout", res.EngineError)
	}
}

// TestServiceQueryTimeout: a stalled engine times the forward out as
// unavailability without poisoning the pool's stream table; the late
// answer is dropped and the next forward re-attests and succeeds.
func TestServiceQueryTimeout(t *testing.T) {
	_, c := startFlakyDaemon(t, flakyBackend{stall: 400 * time.Millisecond}, PoolConfig{RequestTimeout: 60 * time.Millisecond})
	if err := c.forward("flaky-daemon", "stall here"); !errors.Is(err, core.ErrRelayUnavailable) || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want an unavailable timeout", err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := c.forward("flaky-daemon", "a good query"); err != nil {
		t.Fatalf("forward after the timeout: %v", err)
	}
}

// TestServiceSessionOutlivesDialTimeout is the stale-deadline regression:
// the dial/hello phase arms an absolute read deadline, and net.Conn
// deadlines persist until changed — a connection idle past DialTimeout
// must not die of the leftover timeout, and the pair must keep its
// session across the gap.
func TestServiceSessionOutlivesDialTimeout(t *testing.T) {
	_, c := startFlakyDaemon(t, flakyBackend{}, PoolConfig{DialTimeout: 300 * time.Millisecond})
	if err := c.forward("flaky-daemon", "before the idle gap"); err != nil {
		t.Fatal(err)
	}
	closes := countCloses(t)
	time.Sleep(900 * time.Millisecond) // well past DialTimeout
	if err := c.forward("flaky-daemon", "after the idle gap"); err != nil {
		t.Fatalf("forward died of a stale dial deadline: %v", err)
	}
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d session halves closed across the idle gap", n)
	}
}

// TestServiceOversizeQueryRejectedClientSide: the query bound is enforced
// before anything is encrypted or sent.
func TestServiceOversizeQueryRejectedClientSide(t *testing.T) {
	d, c := startFlakyDaemon(t, flakyBackend{}, PoolConfig{})
	if err := c.forward(d.id, strings.Repeat("q", 64<<10)); !errors.Is(err, core.ErrWireOversize) {
		t.Fatalf("err = %v, want ErrWireOversize", err)
	}
	if n := d.net.Node(d.id).Stats().Relayed; n != 0 {
		t.Fatalf("relay received %d records for an oversize query that should never have left the client", n)
	}
}
