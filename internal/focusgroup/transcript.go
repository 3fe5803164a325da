package focusgroup

import (
	"fmt"
	"strings"

	"repro/internal/qualcode"
	"repro/internal/rng"
)

// TranscriptConfig controls synthetic transcript generation for a session:
// each turn becomes one utterance whose text draws from the speaker's topic
// vocabulary, so a session can be formally coded downstream with qualcode —
// the §5.2 pipeline applied to a §6.1 method.
type TranscriptConfig struct {
	// Topics maps a participant ID to the vocabulary their insights use.
	// Participants without an entry use the filler vocabulary only.
	Topics map[string][]string
	Seed   uint64
}

// Transcript replays a session's speaking order (same inputs as Simulate)
// and renders it as a qualcode document: one segment per turn, speaker set
// to the participant ID.
func Transcript(cfg Config, tcfg TranscriptConfig) (qualcode.Document, error) {
	if len(cfg.Participants) < 2 || cfg.Turns <= 0 {
		return qualcode.Document{}, fmt.Errorf("focusgroup: transcript needs a valid session config")
	}
	order, _ := speakers(cfg)
	textRNG := rng.New(tcfg.Seed)
	filler := []string{"well", "think", "agree", "maybe", "right", "because", "here", "really"}

	doc := qualcode.Document{ID: "focus-group", Title: "Focus group transcript"}
	for t, speaker := range order {
		p := cfg.Participants[speaker]
		vocab := tcfg.Topics[p.ID]
		words := make([]string, 0, 10)
		for w := 0; w < 10; w++ {
			if len(vocab) > 0 && textRNG.Bool(0.5) {
				words = append(words, vocab[textRNG.Intn(len(vocab))])
			} else {
				words = append(words, filler[textRNG.Intn(len(filler))])
			}
		}
		doc.Segments = append(doc.Segments, qualcode.Segment{
			ID:      t,
			Speaker: p.ID,
			Text:    strings.Join(words, " "),
		})
	}
	return doc, nil
}
