package core

import (
	"errors"
	"sync"
	"testing"
)

// TestScopeBoundsSessions: pairings through one connection scope stop at
// maxScopeSessions however many identities they claim, a captured offer
// cannot be replayed under a fresh name to grow the table, and closing the
// scope frees every session it holds (and only those) and refuses later
// pairings through it.
func TestScopeBoundsSessions(t *testing.T) {
	defer func(old int64) { maxScopeSessions = old }(maxScopeSessions)
	maxScopeSessions = 4

	net, err := NewNetwork(NetworkOptions{Nodes: 10, Seed: 9, Backend: NullBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	relay := net.Node(ids[0])
	scope := directConduit{net}.Scope()
	paired := 0
	for _, id := range ids[1:8] {
		_, err := net.Node(id).attest(scope, relay.id)
		switch {
		case err == nil:
			paired++
		case errors.Is(err, ErrNoSession):
		default:
			t.Fatalf("pairing %s: %v", id, err)
		}
	}
	if paired != 4 || relay.SessionCount() != 4 {
		t.Fatalf("paired %d, relay holds %d sessions; want both capped at 4", paired, relay.SessionCount())
	}

	// One genuine offer, replayed under fresh names through a fresh scope.
	own, err := net.Node(ids[8]).handshaker.Offer(pairBinding(ids[8], relay.id))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := own.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	replay := directConduit{net}.Scope()
	for i := 0; i < 3; i++ {
		if _, err := replay.Pair(ids[8]+"-alias-"+string(rune('a'+i)), relay.id, offer); err == nil {
			t.Fatal("offer replayed under a fresh name was accepted")
		}
	}
	if n := relay.SessionCount(); n != 4 {
		t.Fatalf("replays grew the table to %d sessions", n)
	}

	// An in-process pairing belongs to no scope and outlives it.
	if _, err := net.Node(ids[9]).attest(directConduit{net}, relay.id); err != nil {
		t.Fatal(err)
	}
	scope.Close()
	if n := relay.SessionCount(); n != 1 {
		t.Fatalf("after closing the scope the relay holds %d sessions, want the in-process 1", n)
	}
	if n := scope.sessions.Load(); n != 0 {
		t.Fatalf("closed scope still counts %d sessions", n)
	}
	if _, err := net.Node(ids[1]).attest(scope, relay.id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("pairing through a closed scope: err = %v, want ErrNoSession", err)
	}
}

// TestScopeCloseRacesPairings closes a scope while pairings through it are
// in flight: every pairing either lands before the close (and is closed by
// it) or is refused, so no session of the closed scope survives and its
// count returns to zero.
func TestScopeCloseRacesPairings(t *testing.T) {
	net, err := NewNetwork(NetworkOptions{Nodes: 9, Seed: 11, Backend: NullBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	relay := net.Node(ids[0])
	scope := directConduit{net}.Scope()
	var wg sync.WaitGroup
	for _, id := range ids[1:] {
		wg.Add(1)
		go func(client *Node) {
			defer wg.Done()
			if _, err := client.attest(scope, relay.id); err != nil && !errors.Is(err, ErrNoSession) {
				t.Errorf("pairing %s: %v", client.id, err)
			}
		}(net.Node(id))
	}
	scope.Close()
	wg.Wait()
	if n := relay.SessionCount(); n != 0 {
		t.Fatalf("%d sessions of a closed scope survived", n)
	}
	if n := scope.sessions.Load(); n != 0 {
		t.Fatalf("closed scope counts %d sessions", n)
	}
}
