package focusgroup

import (
	"testing"

	"repro/internal/qualcode"
)

func TestTranscriptValidation(t *testing.T) {
	if _, err := Transcript(Config{}, TranscriptConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestTranscriptMatchesSimulatedTurns(t *testing.T) {
	for _, strategy := range []Facilitation{Unmoderated, RoundRobin, Gated} {
		t.Run(strategy.String(), func(t *testing.T) {
			cfg := Config{
				Participants: DefaultParticipants(), Turns: 120,
				Strategy: strategy, Seed: 9,
			}
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := Transcript(cfg, TranscriptConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Segments) != cfg.Turns {
				t.Fatalf("segments = %d, want %d", len(doc.Segments), cfg.Turns)
			}
			// Per-speaker turn counts in the transcript must equal the
			// simulation's.
			counts := make(map[string]int)
			for _, s := range doc.Segments {
				counts[s.Speaker]++
			}
			for id, want := range res.TurnsByID {
				if counts[id] != want {
					t.Errorf("speaker %s: transcript %d turns vs simulated %d", id, counts[id], want)
				}
			}
		})
	}
}

func TestTranscriptCodable(t *testing.T) {
	cfg := Config{
		Participants: DefaultParticipants(), Turns: 60,
		Strategy: RoundRobin, Seed: 2,
	}
	doc, err := Transcript(cfg, TranscriptConfig{
		Topics: map[string][]string{
			"quiet1": {"repair", "antenna", "volunteer"},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cb := qualcode.NewCodebook()
	_ = cb.Add(qualcode.Code{ID: "maintenance"})
	p := qualcode.NewProject(cb)
	if err := p.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	// Code every quiet1 utterance mentioning repair vocabulary.
	coded := 0
	for _, s := range doc.Segments {
		if s.Speaker == "quiet1" {
			if err := p.Annotate(qualcode.Annotation{
				DocID: doc.ID, SegmentID: s.ID, CodeID: "maintenance", Coder: "analyst",
			}); err != nil {
				t.Fatal(err)
			}
			coded++
		}
	}
	if coded == 0 {
		t.Fatal("round-robin session gave quiet1 no turns?")
	}
	if p.CodeCounts()["maintenance"] != coded {
		t.Error("annotation accounting mismatch")
	}
}
