// Command cyclosa-node is the networked deployment of CYCLOSA: a
// long-running daemon that relays other users' queries through its enclave
// and discovers and attests other daemons through gossip, and a client that
// runs the full protection flow — sensitivity check, adaptive k, fake
// queries drawn from its own enclave's past-query table, k+1 distinct
// attested relays — across those daemons.
//
// Usage:
//
//	cyclosa-node -mode node -listen :7844                     # seed daemon
//	cyclosa-node -mode node -listen :7845 -bootstrap host:7844
//	cyclosa-node -mode node -listen :7844 -ops-addr 127.0.0.1:7890  # + HTTP ops surface
//	cyclosa-node -mode client -connect host:7844 -query "terms"
//	cyclosa-node -mode client -connect host:7844 -n 100 -concurrency 8
//	cyclosa-node -mode view -connect host:7844                # view introspection
//	cyclosa-node -mode demo                                   # daemon + client in one process
//	cyclosa-node -mode node -engine-timeout 500ms -engine-retries 1 \
//	             -engine-breaker-threshold 0.5 -engine-max-inflight 32
//
// A daemon (-mode node) is one CYCLOSA node: its enclave runs on the
// platform the -ias-secret provisions, it samples relays from its gossip
// view, and it serves the enclave's forward ecall — decrypt, record the
// query in the past-query table, submit it to the engine under the
// daemon's own identity, seal the answer — for every client that pairs
// with it over the internal/nettrans frame protocol. It answers pairings
// only for its own -id. It drains gracefully on SIGINT/SIGTERM (stop
// accepting, finish in-flight exchanges, close).
//
// Membership is dynamic: -bootstrap names seed daemons only. The daemon
// joins by exchanging its partial view with the seeds (gossip frames), then
// keeps gossiping every -gossip-interval; peers discovered through the
// overlay are attested with one pairing exchange as they enter the view
// and cached in the attestation directory. No static peer list exists
// anywhere — a daemon started with only a seed address discovers, attests
// and serves the whole overlay. If every -bootstrap seed is unreachable the
// daemon exits non-zero instead of serving an empty view. `-mode view`
// dials a daemon and prints its live view and directory (id, address, age,
// attestation).
//
// The client (-mode client) fetches the -connect daemon's view once: that
// daemon and its attested peers are the relays it samples from; it neither
// gossips nor keeps a ledger. It builds one local node — the deployed
// sensitivity analyzer, a past-query table bootstrapped from trending
// queries — and runs -n searches, -concurrency at a time, each through
// k+1 distinct relays it pairs with on first use. Each search prints its k
// and the relays it used; runs of more than one search also report
// throughput and latency.
//
// Separate processes must share the -ias-secret flag: it stands in for
// Intel's platform provisioning, letting every side reconstruct the
// attestation roots. The daemon answers from its local simulated search
// engine; in a production deployment this is the TLS connection to the real
// engine originating inside the enclave. The engine sits behind the
// internal/backend resilience stack (deadline, retries, circuit breaker,
// overload shedding), tuned by the -engine-* flags; out-of-range values are
// rejected at start-up with usage, and the stack's live counters appear in
// `-mode view` output. -client-qps and -client-burst bound each client's
// forwards per daemon (keyed by its connection identity): over-quota
// records are shed before decryption and the client moves on to another
// relay.
//
// -ops-addr starts the HTTP operations surface (internal/telemetry):
// Prometheus metrics at /metrics, liveness and readiness probes at /healthz
// and /readyz, the live membership view as JSON at /view (no attested TCP
// hop), the recent query-lifecycle trace ring at /debug/traces, and pprof
// under /debug/pprof/. An unbindable -ops-addr is rejected at start-up with
// usage, like every other invalid flag.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/queries"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cyclosa-node:", err)
		os.Exit(1)
	}
}

// run drives one invocation. ready (when non-nil) receives the daemon's
// bound address; stop (when non-nil) shuts the daemon down — both exist so
// tests can run modes in-process without signals.
func run(args []string, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("cyclosa-node", flag.ContinueOnError)
	var (
		mode        = fs.String("mode", "demo", "node|client|view|demo")
		listen      = fs.String("listen", "127.0.0.1:7844", "daemon listen address")
		connect     = fs.String("connect", "127.0.0.1:7844", "client/view target address")
		query       = fs.String("query", "", "client query (default: topical samples)")
		n           = fs.Int("n", 1, "client: number of protected searches to run")
		concurrency = fs.Int("concurrency", 4, "client: concurrent in-flight searches (capped at -n)")
		seed        = fs.Int64("seed", 1, "seed for the simulated engine, the client's analyzer and sample queries")
		id          = fs.String("id", "cyclosa-node", "daemon identity announced to clients and gossiped in views")
		bootstrap   = fs.String("bootstrap", "", "comma-separated seed daemon addresses; the daemon joins the overlay through them (exits non-zero if none is reachable)")
		advertise   = fs.String("advertise", "", "address gossiped to peers (default: the bound listen address)")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "gossip round period")
		iasSecret   = fs.String("ias-secret", "cyclosa-demo", "shared attestation provisioning secret")
		opsAddr     = fs.String("ops-addr", "", "daemon: HTTP ops listener serving /metrics, /healthz, /readyz, /view, /debug/traces and /debug/pprof (empty disables; node and demo modes)")

		engineTimeout  = fs.Duration("engine-timeout", 800*time.Millisecond, "daemon: total per-query engine budget (attempts, backoffs and retries all inside it)")
		engineRetries  = fs.Int("engine-retries", 2, "daemon: max engine retries per query (0 disables retrying)")
		engineBreaker  = fs.Float64("engine-breaker-threshold", 0.5, "daemon: engine failure rate in (0, 1] that opens the circuit breaker")
		engineInflight = fs.Int("engine-max-inflight", 64, "daemon: concurrent engine calls admitted before shedding with engine-overloaded")

		clientQPS   = fs.Float64("client-qps", 25, "daemon: per-client admitted query rate (token-bucket refill, must be positive and finite)")
		clientBurst = fs.Int("client-burst", 50, "daemon: per-client token-bucket burst capacity (must be positive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject out-of-range resilience settings loudly: a daemon silently
	// falling back to defaults would mask an operator typo until the next
	// brownout.
	engine := backend.Policy{
		Timeout:          *engineTimeout,
		MaxRetries:       *engineRetries,
		BreakerThreshold: *engineBreaker,
		MaxInFlight:      *engineInflight,
	}
	if err := engine.Validate(); err != nil {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return err
	}
	// Same convention for the admission quota: a daemon that silently ran
	// unthrottled (or with a zero quota) would be an operator trap.
	admission, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: *clientQPS, Burst: *clientBurst})
	if err != nil {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return err
	}
	// Bind the ops listener here, not inside the daemon: an unbindable
	// -ops-addr (occupied port, bad syntax) must exit non-zero with usage at
	// start-up, exactly like the engine and admission flags, rather than
	// surfacing minutes later as a silently missing metrics endpoint.
	var opsLn net.Listener
	if *opsAddr != "" && (*mode == "node" || *mode == "demo") {
		opsLn, err = net.Listen("tcp", *opsAddr)
		if err != nil {
			fs.SetOutput(os.Stderr)
			fs.Usage()
			return fmt.Errorf("ops-addr: %w", err)
		}
	}

	env := newAttestationEnv(*iasSecret)
	switch *mode {
	case "node":
		return runNode(env, nodeConfig{
			listen:      *listen,
			id:          *id,
			seed:        *seed,
			bootstrap:   splitPeers(*bootstrap),
			advertise:   *advertise,
			gossipEvery: *gossipEvery,
			engine:      engine,
			admission:   admission,
			opsLn:       opsLn,
		}, ready, stop)
	case "client":
		return runClient(env, *connect, *query, *n, *concurrency, *seed)
	case "view":
		return runView(os.Stdout, *connect)
	case "demo":
		readyCh := make(chan string, 1)
		stopCh := make(chan struct{})
		errCh := make(chan error, 1)
		go func() {
			errCh <- runNode(env, nodeConfig{listen: "127.0.0.1:0", id: *id, seed: *seed, engine: engine, admission: admission, opsLn: opsLn}, readyCh, stopCh)
		}()
		select {
		case addr := <-readyCh:
			cerr := runClient(env, addr, *query, *n, *concurrency, *seed)
			close(stopCh)
			if err := <-errCh; cerr == nil && err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
			fmt.Println("demo: success")
			return nil
		case err := <-errCh:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not start")
		}
	default:
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return fmt.Errorf("unknown mode %q (want node|client|view|demo)", *mode)
	}
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// attestationEnv reconstructs the shared attestation roots on each side:
// every daemon's enclave runs on the relay platform, every client's on the
// client platform, both derived from the -ias-secret.
type attestationEnv struct {
	ias      *enclave.IAS
	relay    *enclave.Platform
	client   *enclave.Platform
	verifier *enclave.Verifier
}

func newAttestationEnv(secret string) *attestationEnv {
	ias := enclave.NewIAS()
	return &attestationEnv{
		ias:      ias,
		relay:    enclave.NewDeterministicPlatform("relay-platform", []byte(secret), ias),
		client:   enclave.NewDeterministicPlatform("client-platform", []byte(secret), ias),
		verifier: enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion)),
	}
}

// nodeConfig parametrizes one daemon.
type nodeConfig struct {
	listen      string
	id          string
	seed        int64
	bootstrap   []string
	advertise   string
	gossipEvery time.Duration
	engine      backend.Policy
	// admission is the per-client token-bucket limiter enforced on data
	// frames, before decrypt and dispatch (nil = unthrottled, only
	// reachable from tests — the flag path always builds one).
	admission *accounting.Limiter
	// opsLn is the pre-bound HTTP ops listener (nil disables the ops
	// surface). Binding happens in run() so flag validation catches an
	// unusable -ops-addr; the daemon takes ownership.
	opsLn net.Listener
	// drainHook, when non-nil, is called between drain stages (test seam
	// for shutdown-order assertions). Stages: "frame-drained" fires after
	// the goaway drain completes and before the ops server shuts down.
	drainHook func(stage string)
	// readyHook, when non-nil, receives the daemon's node and engine once
	// it serves (test seam for what relays record and submit).
	readyHook func(node *core.Node, engine *searchengine.Engine)
}

// runNode runs the long-running relay daemon until a signal (or stop
// closes), then drains gracefully. With bootstrap seeds configured the
// daemon joins the gossip overlay through them — and fails hard when none
// is reachable, because a relay with an empty view is useless and the
// operator should know immediately.
func runNode(env *attestationEnv, cfg nodeConfig, ready chan<- string, stop <-chan struct{}) error {
	if cfg.gossipEvery <= 0 {
		cfg.gossipEvery = time.Second
	}
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: cfg.seed})
	engine := searchengine.New(uni, searchengine.Config{Seed: cfg.seed})
	// The engine answers from behind the full resilience stack: deadline,
	// retries, breaker, admission gate — so a browned-out engine degrades
	// this daemon's answers instead of wedging its connections.
	stack := backend.NewStack(engine, cfg.engine)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "node: "+format+"\n", args...)
	}
	// node is built below, after the membership plane whose view it samples
	// relays from; attestations start only once the daemon joins.
	var node *core.Node
	var tcp *nettrans.TCPConduit
	// The attestation directory's verifier: every peer entering the view is
	// taken through one pairing exchange at its gossiped address, addressed
	// to its gossiped identity — a daemon answers pairings only for its own
	// ID, which binds the identity to the endpoint. A refused or
	// unverifiable pairing is ErrAttestRejected, which the membership layer
	// turns into a blacklist entry (transport failures only evict).
	attest := func(peerID, addr string) (string, error) {
		m, err := node.Attest(tcp.At(addr), peerID)
		if errors.Is(err, core.ErrRelayMisbehaved) {
			return "", fmt.Errorf("%w: %w", nettrans.ErrAttestRejected, err)
		}
		if err != nil {
			return "", err
		}
		return m.String(), nil
	}
	// The misbehavior ledger gossips per-node evidence over the accounting
	// frame, so a blacklist verdict reached here convinces the rest of the
	// overlay without a coordinator.
	ledger := accounting.NewLedger(cfg.id)
	// srv is assigned below, before any goroutine serves traffic; the
	// closure lets view snapshots sample the server's write-path counters
	// even though the server is built after the membership plane.
	var srv *nettrans.Server
	memCfg := nettrans.MembershipConfig{
		Self:       rps.Descriptor{ID: rps.NodeID(cfg.id)},
		Bootstrap:  cfg.bootstrap,
		Interval:   cfg.gossipEvery,
		Attest:     attest,
		PoolConfig: nettrans.PoolConfig{ID: cfg.id, DialTimeout: 3 * time.Second, RequestTimeout: 5 * time.Second},
		Logf:       logf,
		Ledger:     ledger,
		// Surface the stack's counters in every view snapshot so `-mode
		// view` shows brownout state (shed, retries, breaker) live.
		BackendStats: stack.Stats,
		WriteStats: func() nettrans.WriteStatsSnapshot {
			if srv == nil {
				return nettrans.WriteStatsSnapshot{}
			}
			return srv.WriteStats()
		},
	}
	if cfg.admission != nil {
		memCfg.AdmissionStats = cfg.admission.Stats
	}
	membership := nettrans.NewMembership(memCfg)
	defer membership.Stop()

	// The daemon's node: the one relay path. Its conduit resolves attested
	// peers only.
	tcp = nettrans.NewTCPConduit(nettrans.ConduitConfig{
		Resolve:    membership.Resolve,
		PoolConfig: nettrans.PoolConfig{ID: cfg.id, DialTimeout: 3 * time.Second},
	})
	defer tcp.Close()
	network, err := core.NewHost(core.NodeOptions{ID: cfg.id, Seed: cfg.seed}, env.relay, env.verifier, membership.Node(), stack, tcp)
	if err != nil {
		return err
	}
	node = network.Node(cfg.id)

	srv = nettrans.NewServer(nettrans.ServerConfig{
		ID:         cfg.id,
		Handler:    network.Direct(),
		Membership: membership,
		Admission:  cfg.admission,
		Logf:       logf,
	})
	addr, err := srv.Listen(cfg.listen)
	if err != nil {
		return err
	}
	adv := cfg.advertise
	if adv == "" {
		adv = addr.String()
	}
	membership.SetAdvertise(adv)
	fmt.Printf("node %s: listening on %s, advertising %s (enclave %s)\n", cfg.id, addr, adv, node.Enclave().Measurement())

	// The ops surface pairs the process-wide registry (hot-path counters
	// and histograms from core/nettrans) with an instance registry of
	// sampled gauges over this daemon's subsystems. readyFlag gates
	// /readyz: true only once the overlay join finished and the frame
	// listener serves — "joined + attested + serving".
	var readyFlag atomic.Bool
	var ops *telemetry.OpsServer
	if cfg.opsLn != nil {
		inst := telemetry.NewRegistry()
		registerNodeMetrics(inst, node, stack, cfg.admission, ledger, membership, srv)
		ops = telemetry.NewOpsServer(telemetry.OpsConfig{
			Registries: []*telemetry.Registry{telemetry.Default(), inst},
			Traces:     telemetry.Traces(),
			View:       func() (any, error) { return membership.Snapshot(), nil },
			Ready:      readyFlag.Load,
			Logf:       logf,
		})
		opsLn := cfg.opsLn
		go func() {
			if err := ops.ServeListener(opsLn); err != nil {
				logf("ops server: %v", err)
			}
		}()
		// Idempotent backstop for early-error returns (e.g. bootstrap
		// failure): the graceful drain below shuts the server down first,
		// making this a no-op.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = ops.Shutdown(ctx)
			cancel()
		}()
		fmt.Printf("node %s: ops surface on http://%s (/metrics /healthz /readyz /view /debug/traces /debug/pprof)\n", cfg.id, opsLn.Addr())
	}

	// Catch shutdown signals before the bootstrap: unreachable seeds cost
	// dial timeouts, and a SIGTERM in that window must still reach the
	// graceful drain below rather than killing the process outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()
	defer srv.Close()

	// Join the overlay. With seeds configured and none reachable this is
	// fatal — exit non-zero with a clear message instead of serving an
	// empty view that every client would mistake for a healthy daemon.
	if err := membership.Bootstrap(); err != nil {
		return fmt.Errorf("join failed, no bootstrap seed reachable (tried %s): %w",
			strings.Join(cfg.bootstrap, ", "), err)
	}
	if len(cfg.bootstrap) > 0 {
		fmt.Printf("node %s: joined overlay via %s\n", cfg.id, strings.Join(cfg.bootstrap, ", "))
	}
	membership.Start()
	readyFlag.Store(true)
	if cfg.readyHook != nil {
		cfg.readyHook(node, engine)
	}
	if ready != nil {
		ready <- addr.String()
	}

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("node %s: %s, draining\n", cfg.id, s)
	case <-stop:
	}
	// Drain order: flip readiness (load balancers stop routing), stop
	// gossip, close the frame listener and wait out the goaway drain —
	// and only then shut the ops listener down. A scrape racing the drain
	// completes against the fully drained process, so the fleet's last
	// sample of this daemon reflects its final state instead of a dropped
	// connection.
	readyFlag.Store(false)
	membership.Stop()
	srvErr := srv.Close()
	if cfg.drainHook != nil {
		cfg.drainHook("frame-drained")
	}
	if ops != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		opsErr := ops.Shutdown(ctx)
		cancel()
		if srvErr == nil {
			srvErr = opsErr
		}
	}
	return srvErr
}

// runView dials a daemon's introspection endpoint and renders its live view
// and attestation directory.
func runView(w io.Writer, addr string) error {
	snap, err := nettrans.FetchView(addr, nettrans.PoolConfig{DialTimeout: 3 * time.Second, RequestTimeout: 5 * time.Second})
	if err != nil {
		return fmt.Errorf("view of %s: %w", addr, err)
	}
	fmt.Fprintf(w, "view of %s (%s) after %d gossip rounds: %d peer(s)\n",
		snap.Self, snap.Addr, snap.Rounds, len(snap.Peers))
	if len(snap.Peers) > 0 {
		fmt.Fprintf(w, "  %-20s %-22s %5s  %-8s %s\n", "PEER", "ADDR", "AGE", "ATTESTED", "MEASUREMENT")
		for _, p := range snap.Peers {
			att := "no"
			if p.Attested {
				att = "yes"
			}
			fmt.Fprintf(w, "  %-20s %-22s %5d  %-8s %s\n", p.ID, p.Addr, p.Age, att, p.Measurement)
		}
	}
	if len(snap.Blacklisted) > 0 {
		fmt.Fprintf(w, "blacklisted: %s\n", strings.Join(snap.Blacklisted, ", "))
	}
	if b := snap.Backend; b != nil {
		state := "closed"
		if b.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(w, "backend: %d calls (%d ok, %d engine-errors, %d timeouts), %d shed, %d retried, %d in flight\n",
			b.Calls, b.Successes, b.EngineErrors, b.Timeouts, b.Shed, b.Retries, b.InFlight)
		fmt.Fprintf(w, "breaker: %s (%d opens, %d rejected, open %v total)\n",
			state, b.BreakerOpens, b.BreakerRejected, time.Duration(b.BreakerOpenNanos).Round(time.Millisecond))
	}
	if a := snap.Admission; a != nil {
		fmt.Fprintf(w, "admission: %d admitted, %d throttled, %d client bucket(s) live, %d evicted\n",
			a.Admitted, a.Throttled, a.Clients, a.Evicted)
	}
	if wr := snap.Write; wr != nil {
		fmt.Fprintf(w, "write path: %d frames in %d flushes (%.2f frames/flush), %d bytes\n",
			wr.Frames, wr.Flushes, wr.FramesPerFlush(), wr.Bytes)
	}
	if len(snap.Misbehavior) > 0 {
		subjects := make([]string, 0, len(snap.Misbehavior))
		for s := range snap.Misbehavior {
			subjects = append(subjects, s)
		}
		sort.Strings(subjects)
		fmt.Fprintf(w, "misbehavior:\n")
		for _, s := range subjects {
			fmt.Fprintf(w, "  %-20s %d\n", s, snap.Misbehavior[s])
		}
	}
	return nil
}

// client is one user's node in -mode client: it relays nothing, and its
// relays are the daemons of one fetched view.
type client struct {
	node   *core.Node
	uni    *queries.Universe
	tcp    *nettrans.TCPConduit
	relays int
}

// newClient fetches addr's view and builds the client node over it: the
// daemon at addr and its attested peers are the relays, resolved from the
// snapshot and sampled from a local peer-sampling node that never gossips.
// The analyzer is the one the cyclosa package deploys, trained from seed,
// and the past-query table starts from a trending batch. Close releases
// the connections.
func newClient(env *attestationEnv, addr string, seed int64) (*client, error) {
	snap, err := nettrans.FetchView(addr, nettrans.PoolConfig{DialTimeout: 3 * time.Second, RequestTimeout: 5 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("view of %s: %w", addr, err)
	}
	addrs := map[string]string{snap.Self: addr}
	relays := []rps.NodeID{rps.NodeID(snap.Self)}
	for _, p := range snap.Peers {
		if p.Attested && p.Addr != "" {
			addrs[p.ID] = p.Addr
			relays = append(relays, rps.NodeID(p.ID))
		}
	}

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	newAnalyzer, err := sensitivity.TrainAnalyzers(uni, []string{queries.TopicSex}, sensitivity.DefaultKMax, seed)
	if err != nil {
		return nil, err
	}
	id, err := clientID()
	if err != nil {
		return nil, err
	}
	tcp := nettrans.NewTCPConduit(nettrans.ConduitConfig{
		Resolve:    nettrans.StaticResolver(addrs),
		PoolConfig: nettrans.PoolConfig{ID: id, DialTimeout: 3 * time.Second, RequestTimeout: 15 * time.Second},
	})
	peers := rps.NewNode(rps.NodeID(id), relays, rps.Config{Seed: seed})
	network, err := core.NewHost(core.NodeOptions{ID: id, Analyzer: newAnalyzer(), Seed: seed},
		env.client, env.verifier, peers, nil, tcp)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	node := network.Node(id)
	node.BootstrapTable(queries.NewTrendingSource(uni, seed).Batch(32))
	return &client{node: node, uni: uni, tcp: tcp, relays: len(relays)}, nil
}

// clientID draws a fresh identity per client process, so two clients
// never share (and clobber) a relay's session slot.
func clientID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "client-" + hex.EncodeToString(b[:]), nil
}

func (c *client) Close() error { return c.tcp.Close() }

// runClient runs n protected searches, concurrency at a time, through the
// daemons of addr's view, printing each search's k and relays.
func runClient(env *attestationEnv, addr, query string, n, concurrency int, seed int64) error {
	c, err := newClient(env, addr, seed)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("client %s: %d relay(s) from the view of %s\n", c.node.ID(), c.relays, addr)

	sample := sampleQueries(c.uni)
	queryFor := func(i int) string {
		if query != "" {
			return query
		}
		return sample[i%len(sample)]
	}

	if n <= 1 {
		res, err := c.node.Search(queryFor(0), time.Now())
		if err != nil {
			return err
		}
		printSearch(0, queryFor(0), res)
		if res.EngineError != nil {
			return fmt.Errorf("engine refused %q: %w", queryFor(0), res.EngineError)
		}
		printResults(queryFor(0), res.Results)
		return nil
	}

	if concurrency < 1 {
		concurrency = 1
	}
	if concurrency > n {
		concurrency = n
	}
	var (
		next      atomic.Int64
		answered  atomic.Int64
		refused   atomic.Int64
		firstErr  error
		errOnce   sync.Once
		printMu   sync.Mutex
		latencies = make([]time.Duration, n)
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				qStart := time.Now()
				res, err := c.node.Search(queryFor(i), time.Now())
				latencies[i] = time.Since(qStart)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				printMu.Lock()
				printSearch(i, queryFor(i), res)
				printMu.Unlock()
				if res.EngineError != nil {
					refused.Add(1) // the engine said no; the relays worked
				} else {
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return fmt.Errorf("after %d answered: %w", answered.Load(), firstErr)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("client: %d searches (%d in flight): %d answered, %d engine-refused in %v\n",
		n, concurrency, answered.Load(), refused.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("client: %.0f searches/s, p50 %v, p99 %v\n",
		float64(n)/elapsed.Seconds(),
		latencies[n/2].Round(time.Microsecond),
		latencies[n*99/100].Round(time.Microsecond))
	return nil
}

// printSearch reports one search's protection: its k and every relay that
// carried one of its k+1 queries (the real one is not marked).
func printSearch(i int, query string, res *core.SearchResult) {
	fmt.Printf("client: search %d %q: k=%d via %s\n", i, query, res.K, strings.Join(res.Relays, ", "))
}

// sampleQueries derives a deterministic topical query pool from the
// universe.
func sampleQueries(uni *queries.Universe) []string {
	var out []string
	for _, name := range uni.TopicNames() {
		topic := uni.Topic(name)
		if len(topic.Terms) >= 2 {
			out = append(out, topic.Terms[0]+" "+topic.Terms[1])
		}
		if len(out) >= 32 {
			break
		}
	}
	if len(out) == 0 {
		out = []string{"cyclosa probe"}
	}
	return out
}

func printResults(query string, results []searchengine.Result) {
	fmt.Printf("client: %d results for %q\n", len(results), query)
	for i, r := range results {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. %s (%s)\n", i+1, r.Title, r.URL)
	}
}
