package main

import (
	"fmt"

	"cyclosa/internal/queries"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/textproc"
)

// meanQueriesPerUser sizes each user's generated log. The generator's
// per-user counts are Pareto with minimum half the mean, so every user has
// at least 5000 queries: the 730 preloaded on history-direct plus fresh
// ones for the settling loop and a 30 s pass at about 2000 searches per
// second without a repeat. maxQueriesPerUser cuts the heavy tail.
const (
	meanQueriesPerUser = 10000
	maxQueriesPerUser  = 6000
)

// workload is one set of inputs and one delivery path.
type workload struct {
	name string
	// tcp delivers over the loopback server and shared pool; otherwise
	// the in-process direct conduit.
	tcp bool
	// pages answers with full result pages; otherwise empty pages.
	pages bool
	// history is the number of past queries preloaded per user.
	history int
	// historyCap bounds each user's linkability history: Score is
	// O(history), so a bounded history keeps a search's cost the same at
	// the end of a pass as at its start.
	historyCap int
	// sensitiveOnly keeps only queries the deployed detector rates
	// semantically sensitive (k = kmax on every search).
	sensitiveOnly bool
	// sensitiveWeight is the generator's weight of the sensitive topic in a
	// user's profile (0: the generator's default, calibrated to the paper's
	// 15.7% sensitive queries). fanout-tcp raises it so that the queries
	// the detector keeps last a whole pass.
	sensitiveWeight float64
	// churnEvery is the number of a client's searches between churn events
	// (0: no churn).
	churnEvery int
}

// Fresh users keep their last 150 queries, the per-user volume at which
// the sensitivity check is still a small cost; history-direct users keep
// 730, the paper cohort's per-user mean, and start with that many.
var workloads = []workload{
	{name: "fanout-tcp", tcp: true, pages: true, sensitiveOnly: true, sensitiveWeight: 3, historyCap: 150},
	{name: "history-direct", history: 730, historyCap: 730},
	{name: "churn-tcp", tcp: true, churnEvery: 25, historyCap: 150},
}

func workloadNamed(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything the load generator draws from one seed.
type inputs struct {
	seed int64
	uni  *queries.Universe
	// streams[u] are user u's searches in issue order; history[u] is what
	// its linkability history starts with.
	streams [][]string
	history [][]string
	// pageQueries are the queries whose result pages the stand-in engine
	// serves.
	pageQueries []string
	warmupQuery string
}

// makeInputs generates each user's query log for seed: user u is the user
// of node u. The logs are generated one user at a time and cut to
// maxQueriesPerUser, so a heavy-tailed user never makes the generator, not
// the deployment, set the process's peak memory.
func makeInputs(wl workload, seed int64) (*inputs, error) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	in := &inputs{
		seed:        seed,
		uni:         uni,
		streams:     make([][]string, numNodes),
		history:     make([][]string, numNodes),
		warmupQuery: queries.NewTrendingSource(uni, seed).Next(),
	}
	seen := make(map[string]bool)
	for u := 0; u < numNodes; u++ {
		log := queries.Generate(queries.GeneratorConfig{
			Seed:                  seed*1_000_003 + int64(u),
			Universe:              uni,
			NumUsers:              1,
			MeanQueriesPerUser:    meanQueriesPerUser,
			SensitiveTopicChoices: sensitiveTopics,
			SensitiveQueryWeight:  wl.sensitiveWeight,
		})
		texts := make([]string, 0, min(log.Len(), maxQueriesPerUser))
		for _, q := range log.Queries[:min(log.Len(), maxQueriesPerUser)] {
			texts = append(texts, q.Text)
		}
		if len(texts) <= wl.history {
			return nil, fmt.Errorf("user %d has %d queries, want more than %d", u, len(texts), wl.history)
		}
		in.history[u] = texts[:wl.history]
		in.streams[u] = texts[wl.history:]
		// Every user contributes the same number of page queries.
		for i, taken := 0, 0; i < len(texts) && taken < numPages/numNodes; i++ {
			if q := texts[i]; !seen[q] && len(textproc.Tokenize(q)) > 0 {
				seen[q] = true
				in.pageQueries = append(in.pageQueries, q)
				taken++
			}
		}
	}
	return in, nil
}

// keepSensitive narrows every stream to the queries det rates semantically
// sensitive.
func (in *inputs) keepSensitive(det sensitivity.Detector) error {
	for u, stream := range in.streams {
		var kept []string
		for _, q := range stream {
			if sensitivity.DetectQuery(det, q) {
				kept = append(kept, q)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("user %d has no sensitive query", u)
		}
		in.streams[u] = kept
	}
	return nil
}
