package positionality

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Lens is a researcher's evaluative stance: per-topic multiplicative biases
// applied when scoring candidate research problems. Positive values make a
// topic's problems look more worthwhile to this researcher; negative values
// less.
type Lens map[string]float64

// AgendaItem is one candidate research problem in the E9 experiment.
type AgendaItem struct {
	ID        int
	Topics    []string
	BaseValue float64
}

// SelectAgenda scores items under the lens and returns the IDs of the top-k
// (score = BaseValue * (1 + sum of lens weights over the item's topics),
// floored at 0). Ties break by ID for determinism.
func SelectAgenda(items []AgendaItem, lens Lens, k int) []int {
	type scored struct {
		id    int
		score float64
	}
	ss := make([]scored, len(items))
	for i, it := range items {
		mult := 1.0
		for _, t := range it.Topics {
			mult += lens[t]
		}
		if mult < 0 {
			mult = 0
		}
		ss[i] = scored{id: it.ID, score: it.BaseValue * mult}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].id < ss[b].id
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].id
	}
	sort.Ints(out)
	return out
}

// JaccardDivergence returns 1 - |A∩B|/|A∪B| over two ID sets.
func JaccardDivergence(a, b []int) float64 {
	sa := make(map[int]bool, len(a))
	for _, x := range a {
		sa[x] = true
	}
	sb := make(map[int]bool, len(b))
	for _, x := range b {
		sb[x] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	for x := range sa {
		if sb[x] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return 1 - float64(inter)/float64(union)
}

// LensConfig parameterizes E9.
type LensConfig struct {
	// Items is the candidate-problem population size.
	Items int
	// ContestedTopicFrac is the fraction of items touching the contested
	// topic (e.g. "bitcoin"/decentralization).
	ContestedTopicFrac float64
	// Select is the agenda size each researcher picks.
	Select int
	// Strengths is the sweep of lens strengths to evaluate.
	Strengths []float64
	Seed      uint64
}

// DefaultLensConfig returns a reference E9 configuration.
func DefaultLensConfig() LensConfig {
	return LensConfig{
		Items:              300,
		ContestedTopicFrac: 0.35,
		Select:             30,
		Strengths:          []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		Seed:               1,
	}
}

// LensRow is one strength level of the E9 sweep.
type LensRow struct {
	Strength float64
	// Divergence is the Jaccard divergence between the proponent's and the
	// skeptic's selected agendas.
	Divergence float64
	// ContestedShareProponent is the contested-topic fraction of the
	// proponent's agenda; ContestedShareSkeptic likewise.
	ContestedShareProponent float64
	ContestedShareSkeptic   float64
}

// RunLens executes E9: the same candidate problems scored by a proponent
// lens (+strength on the contested topic) and a skeptic lens (-strength).
// The paper's claim is qualitative — different stances yield very different
// works — and the sweep quantifies how fast agendas diverge as conviction
// strengthens.
func RunLens(cfg LensConfig) ([]LensRow, error) {
	if cfg.Items <= 0 || cfg.Select <= 0 || len(cfg.Strengths) == 0 {
		return nil, fmt.Errorf("positionality: lens config incomplete")
	}
	r := rng.New(cfg.Seed)
	const contested = "contested-topic"
	items := make([]AgendaItem, cfg.Items)
	for i := range items {
		topics := []string{"networking"}
		if r.Bool(cfg.ContestedTopicFrac) {
			topics = append(topics, contested)
		}
		items[i] = AgendaItem{ID: i, Topics: topics, BaseValue: 0.2 + 0.8*r.Float64()}
	}
	share := func(agenda []int) float64 {
		if len(agenda) == 0 {
			return 0
		}
		inAgenda := make(map[int]bool, len(agenda))
		for _, id := range agenda {
			inAgenda[id] = true
		}
		n := 0
		for _, it := range items {
			if !inAgenda[it.ID] {
				continue
			}
			for _, t := range it.Topics {
				if t == contested {
					n++
					break
				}
			}
		}
		return float64(n) / float64(len(agenda))
	}
	rows := make([]LensRow, 0, len(cfg.Strengths))
	for _, s := range cfg.Strengths {
		prop := SelectAgenda(items, Lens{contested: s}, cfg.Select)
		skep := SelectAgenda(items, Lens{contested: -s}, cfg.Select)
		rows = append(rows, LensRow{
			Strength:                s,
			Divergence:              JaccardDivergence(prop, skep),
			ContestedShareProponent: share(prop),
			ContestedShareSkeptic:   share(skep),
		})
	}
	return rows, nil
}
