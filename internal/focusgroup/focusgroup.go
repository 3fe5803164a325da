// Package focusgroup models the focus-group method the paper's §6.1 lists:
// a facilitated group session where participants hold private insights that
// only surface when they get enough of the floor. Dominance dynamics are
// the method's classic failure mode, and moderation is the fix — the
// simulator compares facilitation strategies by speaking-time equity and
// insight coverage.
package focusgroup

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Participant is one session member.
type Participant struct {
	ID string
	// Talkativeness is the propensity weight for taking the next turn under
	// unmoderated dynamics.
	Talkativeness float64
	// Insights is how many distinct insights the participant holds.
	Insights int
	// TurnsPerInsight is the number of speaking turns needed before the
	// participant surfaces each next insight (comfort builds with floor
	// time).
	TurnsPerInsight int
}

// Facilitation selects the moderation strategy.
type Facilitation int

// Facilitation strategies.
const (
	// Unmoderated lets talkativeness rule.
	Unmoderated Facilitation = iota
	// RoundRobin hands the floor around in order.
	RoundRobin
	// Gated is adaptive: the moderator intervenes when the running
	// speaking-time Jain index drops below a threshold, handing the floor
	// to the least-heard participant.
	Gated
)

// String returns the strategy name.
func (f Facilitation) String() string {
	switch f {
	case Unmoderated:
		return "unmoderated"
	case RoundRobin:
		return "round-robin"
	case Gated:
		return "gated"
	default:
		return fmt.Sprintf("Facilitation(%d)", int(f))
	}
}

// Config parameterizes one simulated session.
type Config struct {
	Participants []Participant
	Turns        int
	Strategy     Facilitation
	// GateThreshold is the Jain fairness floor for Gated moderation.
	GateThreshold float64
	Seed          uint64
}

// DefaultParticipants returns a realistic 8-person mix: two dominant
// speakers, four average, two quiet members who hold disproportionately
// many insights (the voices moderation exists to surface).
func DefaultParticipants() []Participant {
	ps := []Participant{
		{ID: "dom1", Talkativeness: 8, Insights: 2, TurnsPerInsight: 3},
		{ID: "dom2", Talkativeness: 6, Insights: 2, TurnsPerInsight: 3},
		{ID: "avg1", Talkativeness: 2, Insights: 3, TurnsPerInsight: 3},
		{ID: "avg2", Talkativeness: 2, Insights: 3, TurnsPerInsight: 3},
		{ID: "avg3", Talkativeness: 2, Insights: 3, TurnsPerInsight: 3},
		{ID: "avg4", Talkativeness: 2, Insights: 3, TurnsPerInsight: 3},
		{ID: "quiet1", Talkativeness: 0.5, Insights: 5, TurnsPerInsight: 3},
		{ID: "quiet2", Talkativeness: 0.5, Insights: 5, TurnsPerInsight: 3},
	}
	return ps
}

// Result summarizes a session.
type Result struct {
	Strategy Facilitation
	// SpeakingJain is the Jain fairness index of turn counts.
	SpeakingJain float64
	// InsightCoverage is surfaced insights / total held insights.
	InsightCoverage float64
	// QuietCoverage restricts coverage to the quietest quartile of
	// participants by talkativeness.
	QuietCoverage float64
	// Interventions counts moderator hand-offs (Gated only).
	Interventions int
	// TurnsByID records who got the floor how often.
	TurnsByID map[string]int
}

// Simulate runs one session.
func Simulate(cfg Config) (Result, error) {
	n := len(cfg.Participants)
	if n < 2 || cfg.Turns <= 0 {
		return Result{}, fmt.Errorf("focusgroup: need >= 2 participants and positive turns")
	}
	order, interventions := speakers(cfg)
	turns := make([]float64, n)
	surfaced := make([]int, n)
	for _, speaker := range order {
		turns[speaker]++
		p := cfg.Participants[speaker]
		if p.TurnsPerInsight > 0 && surfaced[speaker] < p.Insights &&
			int(turns[speaker])%p.TurnsPerInsight == 0 {
			surfaced[speaker]++
		}
	}

	res := Result{
		Strategy:      cfg.Strategy,
		SpeakingJain:  stats.Jain(turns),
		Interventions: interventions,
		TurnsByID:     make(map[string]int, n),
	}
	totalInsights, totalSurfaced := 0, 0
	var quietHeld, quietSurfaced int
	quietCut := quietThreshold(cfg.Participants)
	for i, p := range cfg.Participants {
		res.TurnsByID[p.ID] = int(turns[i])
		totalInsights += p.Insights
		totalSurfaced += surfaced[i]
		if p.Talkativeness <= quietCut {
			quietHeld += p.Insights
			quietSurfaced += surfaced[i]
		}
	}
	if totalInsights > 0 {
		res.InsightCoverage = float64(totalSurfaced) / float64(totalInsights)
	}
	if quietHeld > 0 {
		res.QuietCoverage = float64(quietSurfaced) / float64(quietHeld)
	}
	return res, nil
}

// speakers runs the session's floor policy and returns who holds the floor
// at each turn, plus how many times the Gated moderator intervened. It is the
// one speaker draw for a config, so Simulate and Transcript see the same
// session.
func speakers(cfg Config) (order []int, interventions int) {
	n := len(cfg.Participants)
	r := rng.New(cfg.Seed)
	turns := make([]float64, n)
	weights := make([]float64, n)
	for i, p := range cfg.Participants {
		weights[i] = p.Talkativeness
	}
	order = make([]int, cfg.Turns)
	next := 0 // round-robin cursor
	for t := range order {
		var speaker int
		switch cfg.Strategy {
		case RoundRobin:
			speaker = next
			next = (next + 1) % n
		case Gated:
			threshold := cfg.GateThreshold
			if threshold == 0 {
				threshold = 0.8
			}
			if t > n && stats.Jain(turns) < threshold {
				// Hand the floor to the least-heard participant.
				speaker = argmin(turns)
				interventions++
			} else {
				speaker = r.Categorical(weights)
			}
		default:
			speaker = r.Categorical(weights)
		}
		turns[speaker]++
		order[t] = speaker
	}
	return order, interventions
}

// quietThreshold returns the 25th-percentile talkativeness.
func quietThreshold(ps []Participant) float64 {
	vals := make([]float64, len(ps))
	for i, p := range ps {
		vals[i] = p.Talkativeness
	}
	sort.Float64s(vals)
	return vals[len(vals)/4]
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// Compare runs the same session under all three strategies (same seed) and
// returns results in the order unmoderated, round-robin, gated.
func Compare(participants []Participant, turns int, seed uint64) ([]Result, error) {
	out := make([]Result, 0, 3)
	for _, s := range []Facilitation{Unmoderated, RoundRobin, Gated} {
		res, err := Simulate(Config{
			Participants: participants, Turns: turns, Strategy: s, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
