package cyclosa

import (
	"fmt"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/queries"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
)

// Config configures a CYCLOSA deployment.
type Config struct {
	// Nodes is the number of participating nodes (minimum 2).
	Nodes int
	// Seed drives all randomness; deployments are deterministic per seed.
	Seed int64
	// KMax is the maximum number of fake queries per real query
	// (default 7, the paper's setting).
	KMax int
	// SensitiveTopics are the topics the local users mark as sensitive
	// (default: sexuality, the paper's running example). Available topics
	// come from the synthetic universe: health, politics, sex, religion.
	SensitiveTopics []string
	// Engine, when non-nil, replaces the built-in simulated search engine.
	Engine Backend
	// DisableAdaptiveProtection turns off the sensitivity analysis
	// (every query is sent with k = 0, unlinkability only).
	DisableAdaptiveProtection bool
}

// Backend is the search engine interface a deployment forwards queries to.
type Backend = core.Backend

// Result is one search result returned to the user.
type Result = searchengine.Result

// Assessment is the sensitivity assessment of a query.
type Assessment = sensitivity.Assessment

// SearchResult is the outcome of one protected search.
type SearchResult = core.SearchResult

// Network is a running CYCLOSA deployment: the public entry point of the
// library.
type Network struct {
	inner  *core.Network
	engine *searchengine.Engine // nil when a custom backend is supplied
	uni    *queries.Universe
	ids    []string
}

// New builds a deployment: a synthetic query universe, the lexical database
// and LDA models behind the semantic categorizer, a simulated search engine
// (unless Config.Engine is given), per-node sensitivity analyzers, simulated
// SGX platforms registered with a common attestation service, and a
// converged peer-sampling overlay. Fake-query tables are bootstrapped from a
// trending-queries source, as in the paper (§V-D).
func New(cfg Config) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("cyclosa: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.KMax == 0 {
		cfg.KMax = sensitivity.DefaultKMax
	}
	if len(cfg.SensitiveTopics) == 0 {
		cfg.SensitiveTopics = []string{queries.TopicSex}
	}

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: cfg.Seed})

	var (
		engine  *searchengine.Engine
		backend Backend
	)
	if cfg.Engine != nil {
		backend = cfg.Engine
	} else {
		engine = searchengine.New(uni, searchengine.Config{Seed: cfg.Seed})
		backend = engine
	}

	var analyzerFor func(string) *sensitivity.Analyzer
	if !cfg.DisableAdaptiveProtection {
		newAnalyzer, err := sensitivity.TrainAnalyzers(uni, cfg.SensitiveTopics, cfg.KMax, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("cyclosa: %w", err)
		}
		analyzerFor = func(string) *sensitivity.Analyzer { return newAnalyzer() }
	}

	inner, err := core.NewNetwork(core.NetworkOptions{
		Nodes:        cfg.Nodes,
		Seed:         cfg.Seed,
		Backend:      backend,
		AnalyzerFor:  analyzerFor,
		LatencyModel: transport.DefaultModel(cfg.Seed),
	})
	if err != nil {
		return nil, fmt.Errorf("cyclosa: %w", err)
	}
	inner.BootstrapFromTrending(uni, 32, cfg.Seed)

	return &Network{
		inner:  inner,
		engine: engine,
		uni:    uni,
		ids:    inner.NodeIDs(),
	}, nil
}

// NumNodes returns the deployment size.
func (n *Network) NumNodes() int { return len(n.ids) }

// Node returns the i-th node (wrapping around for convenience).
func (n *Network) Node(i int) *Node {
	if len(n.ids) == 0 {
		return nil
	}
	id := n.ids[((i%len(n.ids))+len(n.ids))%len(n.ids)]
	return &Node{inner: n.inner.Node(id), net: n}
}

// Universe exposes the synthetic topic/term universe (useful for composing
// realistic queries in examples and tests).
func (n *Network) Universe() *queries.Universe { return n.uni }

// Engine exposes the built-in simulated engine, or nil when a custom
// backend was supplied. The engine-side observation log is the adversary's
// interception point.
func (n *Network) Engine() *searchengine.Engine { return n.engine }

// Kill makes a node unreachable, exercising the blacklist/failover path.
func (n *Network) Kill(i int) {
	if node := n.Node(i); node != nil {
		n.inner.Kill(node.inner.ID())
	}
}

// Gossip runs extra peer-sampling rounds (e.g. after failures).
func (n *Network) Gossip(rounds int) { n.inner.Gossip(rounds) }

// Node is one CYCLOSA participant as seen by the library user.
type Node struct {
	inner *core.Node
	net   *Network
}

// ID returns the node identity.
func (nd *Node) ID() string { return nd.inner.ID() }

// Search runs the full protection flow for a query at the current time.
func (nd *Node) Search(query string) (*SearchResult, error) {
	return nd.inner.Search(query, time.Now())
}

// SearchAt runs the protection flow at an explicit time (for simulations
// against rate-limited engines).
func (nd *Node) SearchAt(query string, now time.Time) (*SearchResult, error) {
	return nd.inner.Search(query, now)
}

// Stats returns the node's activity counters.
func (nd *Node) Stats() core.NodeStats { return nd.inner.Stats() }
