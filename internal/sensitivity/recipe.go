package sensitivity

import (
	"fmt"

	"cyclosa/internal/lda"
	"cyclosa/internal/queries"
	"cyclosa/internal/wordnet"
)

// TrainAnalyzers trains the sensitivity substrate a CYCLOSA deployment
// ships — a WordNet-style database over uni plus one LDA model per
// sensitive topic, each fitted on 800 generated documents (10 latent
// topics, 50 iterations) — and returns a constructor of per-node analyzers
// over it: the combined detector (40 terms per LDA topic) with a fresh
// query history and adaptive k up to kmax.
func TrainAnalyzers(uni *queries.Universe, topics []string, kmax int, seed int64) (func() *Analyzer, error) {
	db := wordnet.Build(uni, wordnet.BuildConfig{Seed: seed})
	var models []*lda.Model
	for i, topic := range topics {
		docs := queries.GenerateCorpus(uni, topic, queries.CorpusConfig{
			Seed:      seed + int64(i),
			Documents: 800,
		})
		m, err := lda.Train(docs, lda.Config{Topics: 10, Iterations: 50, Seed: seed + int64(i)})
		if err != nil {
			return nil, fmt.Errorf("train lda for %s: %w", topic, err)
		}
		models = append(models, m)
	}
	return func() *Analyzer {
		det := NewCombinedDetector(db, models, 40, topics)
		return NewAnalyzer(det, NewLinkability(0), kmax)
	}, nil
}
