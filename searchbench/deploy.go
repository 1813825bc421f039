package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/lda"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/queries"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
	"cyclosa/internal/wordnet"
)

// Deployment shape. The detector and overlay settings are the ones the
// public cyclosa package deploys; the engine policy is the node daemon's
// flag defaults.
const (
	numNodes       = 32
	kmax           = sensitivity.DefaultKMax
	ldaDocs        = 800
	ldaTopics      = 10
	ldaIterations  = 50
	ldaTermsPerTop = 40
	trendingBatch  = 32
	numPages       = 64
)

var sensitiveTopics = []string{queries.TopicSex}

// daemonPolicy is the backend policy cyclosa-node deploys by default.
var daemonPolicy = backend.Policy{
	Timeout:          800 * time.Millisecond,
	MaxRetries:       2,
	BreakerThreshold: 0.5,
	MaxInFlight:      64,
}

// warmupBase is the protocol time of the set-up round trips; searches use
// searchBase. The two ranges never overlap, so a `now` names one search.
var (
	warmupBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	searchBase = time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)
)

// standIn is the bench-owned engine: a fixed set of result pages computed
// once by the simulated engine, handed out by a hash of the query. It keeps
// the simulated engine's TF-IDF ranking, which stands for the remote
// engine's own cost, out of the measured path.
type standIn struct {
	pages [][]searchengine.Result // empty: every query gets an empty page
	tr    *tracer                 // nil when untraced
}

// page returns the page the stand-in answers query with, picked by the
// query's FNV-1a hash (computed inline: the stand-in must not allocate).
func (s *standIn) page(query string) []searchengine.Result {
	if len(s.pages) == 0 {
		return nil
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(query); i++ {
		h = (h ^ uint64(query[i])) * 1099511628211
	}
	return s.pages[h%uint64(len(s.pages))]
}

// Search implements backend.Engine.
func (s *standIn) Search(source, query string, now time.Time) ([]searchengine.Result, error) {
	if s.tr == nil {
		return s.page(query), nil
	}
	start := s.tr.clock()
	page := s.page(query)
	s.tr.add(span{id: now.UnixNano(), kind: kindEngine, key: source, start: start, end: s.tr.clock()})
	return page, nil
}

// expected is the page a correct search for query returns: the stand-in's
// page as the relay clamps it for the wire.
func (s *standIn) expected(query string) []searchengine.Result {
	return searchengine.ClampForWire(s.page(query))
}

// detectorParts is the trained sensitivity substrate every node's detector
// is compiled from.
type detectorParts struct {
	db     *wordnet.Database
	models []*lda.Model
}

func trainDetector(uni *queries.Universe, seed int64) (detectorParts, error) {
	db := wordnet.Build(uni, wordnet.BuildConfig{Seed: seed})
	var models []*lda.Model
	for i, topic := range sensitiveTopics {
		docs := queries.GenerateCorpus(uni, topic, queries.CorpusConfig{Seed: seed + int64(i), Documents: ldaDocs})
		m, err := lda.Train(docs, lda.Config{Topics: ldaTopics, Iterations: ldaIterations, Seed: seed + int64(i)})
		if err != nil {
			return detectorParts{}, fmt.Errorf("train lda for %s: %w", topic, err)
		}
		models = append(models, m)
	}
	return detectorParts{db: db, models: models}, nil
}

func (p detectorParts) detector() sensitivity.Detector {
	return sensitivity.NewCombinedDetector(p.db, p.models, ldaTermsPerTop, sensitiveTopics)
}

// deployment is one seeded CYCLOSA network under load.
type deployment struct {
	wl     workload
	in     *inputs
	net    *core.Network
	users  []string // node id of each user, by user index
	engine *standIn
	parts  detectorParts
	tr     *tracer

	server *nettrans.Server
	tcp    *nettrans.TCPConduit

	// pos[u] is how many searches user u has issued: the next one is
	// stream[pos[u]]. seq numbers the searches; searchBase plus seq is a
	// search's `now` and trace id.
	pos []int
	seq atomic.Int64

	// current[u] is the id of the search user u has in flight; the traced
	// detector stamps its spans with it.
	current []int64
	// shadows[u] is an analyzer with user u's detector and history, run
	// beside the real one in the traced pass to time Assess+RecordQuery.
	shadows []*sensitivity.Analyzer

	mu       sync.Mutex
	churnSeq int
	live     []string  // joined churn nodes still in the network, oldest first
	departed nodeStats // counters of the churn nodes that have left

	setup time.Duration
}

// deploy builds and warms one deployment. Everything from training the
// detector to the last first-contact attestation is set-up time.
func deploy(wl workload, in *inputs, tr *tracer) (*deployment, error) {
	start := time.Now()
	d := &deployment{wl: wl, in: in, tr: tr, pos: make([]int, numNodes), current: make([]int64, numNodes)}
	var err error
	if d.parts, err = trainDetector(in.uni, in.seed); err != nil {
		return nil, err
	}
	d.engine = &standIn{tr: tr}
	if wl.pages {
		eng := searchengine.New(in.uni, searchengine.Config{Seed: in.seed})
		for _, q := range in.pageQueries {
			d.engine.pages = append(d.engine.pages, eng.DirectResults(q))
		}
	}

	userOf := make(map[string]int, numNodes)
	for u := 0; u < numNodes; u++ {
		id := string(rps.Name(u))
		userOf[id] = u
		d.users = append(d.users, id)
	}
	if tr != nil {
		d.shadows = make([]*sensitivity.Analyzer, numNodes)
	}
	var hookErr error
	opts := core.NetworkOptions{
		Nodes: numNodes,
		Seed:  in.seed,
		BackendFor: func(string) core.Backend {
			st := backend.NewStack(d.engine, daemonPolicy)
			if tr == nil {
				return st
			}
			return tracedStack{Stack: st, tr: tr}
		},
		AnalyzerFor: func(id string) *sensitivity.Analyzer {
			u, isUser := userOf[id]
			var det sensitivity.Detector = d.parts.detector()
			link := sensitivity.NewBoundedLinkability(0, wl.historyCap)
			if isUser {
				link.AddAll(in.history[u])
				if tr != nil {
					shadow := sensitivity.NewBoundedLinkability(0, wl.historyCap)
					shadow.AddAll(in.history[u])
					d.shadows[u] = sensitivity.NewAnalyzer(d.parts.detector(), shadow, kmax)
					det = &tracedDetector{inner: det, tr: tr, node: id, current: &d.current[u]}
				}
			}
			return sensitivity.NewAnalyzer(det, link, kmax)
		},
	}
	if wl.tcp || tr != nil {
		opts.Conduit = func(direct transport.Conduit) transport.Conduit {
			c, err := d.conduit(direct)
			if err != nil {
				hookErr = err
				return direct
			}
			return c
		}
	}
	d.net, err = core.NewNetwork(opts)
	if err == nil {
		err = hookErr
	}
	if err != nil {
		d.close()
		return nil, err
	}
	d.net.BootstrapFromTrending(in.uni, trendingBatch, in.seed)
	if err := d.warmUp(); err != nil {
		d.close()
		return nil, err
	}
	d.setup = time.Since(start)
	return d, nil
}

// conduit builds the delivery path around the network's direct conduit:
// a loopback server fronting every relay plus one shared client pool for
// the TCP workloads, and the span wrappers when traced.
func (d *deployment) conduit(direct transport.Conduit) (transport.Conduit, error) {
	handler := direct
	if d.tr != nil {
		handler = serveConduit{inner: direct, tr: d.tr}
	}
	client := handler
	if d.wl.tcp {
		d.server = nettrans.NewServer(nettrans.ServerConfig{ID: "searchbench-relays", Handler: handler})
		if err := d.server.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		addr := d.server.Addr().String()
		d.tcp = nettrans.NewTCPConduit(nettrans.ConduitConfig{
			Resolve:    func(string) (string, bool) { return addr, true },
			PoolConfig: nettrans.PoolConfig{ID: "searchbench-clients"},
		})
		client = d.tcp
	}
	if d.tr != nil {
		client = deliverConduit{inner: client, tr: d.tr}
	}
	return client, nil
}

// warmUp attests every (user, relay) pair of the initial members with one
// round trip each, so steady-state searches never pay first contact.
func (d *deployment) warmUp() error {
	ids := d.net.NodeIDs()
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < len(d.users); u += workers {
				client := d.net.Node(d.users[u])
				for i, relay := range ids {
					if relay == client.ID() {
						continue
					}
					now := warmupBase.Add(time.Duration(u*len(ids) + i))
					if err := d.net.RelayRoundTrip(client, relay, d.in.warmupQuery, now); err != nil {
						errs[w] = fmt.Errorf("warm-up %s->%s: %w", client.ID(), relay, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeStats sums enclave and backend counters over nodes.
type nodeStats struct {
	nodes        int
	ecalls       uint64
	epcUsed      int64
	backendCalls uint64
}

func (s *nodeStats) add(n *core.Node) {
	st := n.Enclave().Stats()
	s.nodes++
	s.ecalls += st.ECalls
	s.epcUsed += st.EPCUsed
	if b, ok := n.BackendStats(); ok {
		s.backendCalls += b.Calls
	}
}

// stats sums the counters of the current members and of the churn nodes
// that have left.
func (d *deployment) stats() (members, departed nodeStats) {
	for _, id := range d.net.NodeIDs() {
		members.add(d.net.Node(id))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return members, d.departed
}

// close stops the loopback server and the client pool.
func (d *deployment) close() {
	if d.tcp != nil {
		d.tcp.Close()
	}
	if d.server != nil {
		d.server.Close()
	}
}
