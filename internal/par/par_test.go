package par

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPhasesOrder(t *testing.T) {
	ps := Phases()
	if len(ps) != 5 || ps[0] != ProblemFormation || ps[4] != Publication {
		t.Errorf("phases = %v", ps)
	}
	if ProblemFormation.String() != "problem-formation" || Publication.String() != "publication" {
		t.Error("phase strings wrong")
	}
}

func TestLevelOrdering(t *testing.T) {
	if !(NotInvolved < Informed && Informed < Consulted && Consulted < Collaborating && Collaborating < CommunityLed) {
		t.Error("ladder ordering broken")
	}
	if CommunityLed.String() != "community-led" {
		t.Error("level string wrong")
	}
}

func TestStakeholderValidation(t *testing.T) {
	p := NewProject("test")
	if err := p.AddStakeholder(Stakeholder{}); err == nil {
		t.Error("empty stakeholder accepted")
	}
	if err := p.AddStakeholder(Stakeholder{ID: "op1", Name: "Operator"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddStakeholder(Stakeholder{ID: "op1"}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := p.Engage(Engagement{StakeholderID: "ghost", Phase: Evaluation}); err == nil {
		t.Error("engagement of unknown stakeholder accepted")
	}
}

func TestCoverageScore(t *testing.T) {
	p := NewProject("test")
	_ = p.AddStakeholder(Stakeholder{ID: "op1"})
	if p.CoverageScore() != 0 {
		t.Errorf("empty coverage = %g", p.CoverageScore())
	}
	_ = p.Engage(Engagement{StakeholderID: "op1", Phase: ProblemFormation, Level: Collaborating})
	_ = p.Engage(Engagement{StakeholderID: "op1", Phase: Evaluation, Level: CommunityLed})
	// Consulted does not count toward "full and active participation".
	_ = p.Engage(Engagement{StakeholderID: "op1", Phase: Publication, Level: Consulted})
	if got := p.CoverageScore(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("coverage = %g, want 0.4", got)
	}
	if p.LevelAt(Publication, "op1") != Consulted {
		t.Error("LevelAt wrong")
	}
	if p.LevelAt(Implementation, "op1") != NotInvolved {
		t.Error("unengaged phase should be NotInvolved")
	}
}

func TestEngageUpdateOverwrites(t *testing.T) {
	p := NewProject("test")
	_ = p.AddStakeholder(Stakeholder{ID: "s"})
	_ = p.Engage(Engagement{StakeholderID: "s", Phase: SolutionDesign, Level: Informed})
	_ = p.Engage(Engagement{StakeholderID: "s", Phase: SolutionDesign, Level: CommunityLed})
	if p.LevelAt(SolutionDesign, "s") != CommunityLed {
		t.Error("engagement not updated")
	}
}

func TestAuditFindings(t *testing.T) {
	p := NewProject("test")
	_ = p.AddStakeholder(Stakeholder{ID: "m", Marginal: true})
	_ = p.Engage(Engagement{StakeholderID: "m", Phase: ProblemFormation, Level: Collaborating})
	findings := p.Audit()
	var missingConsent, missingReflection, missingParticipation int
	for _, f := range findings {
		switch f.Subject {
		case "m":
			missingConsent++
		case "reflexivity":
			missingReflection++
		case "participation":
			missingParticipation++
		}
	}
	if missingConsent != 1 {
		t.Errorf("consent findings = %d, want 1", missingConsent)
	}
	if missingReflection != 1 {
		t.Errorf("reflexivity findings = %d, want 1 (only the active phase)", missingReflection)
	}
	if missingParticipation != 4 {
		t.Errorf("participation findings = %d, want 4", missingParticipation)
	}
	// Fix everything and re-audit.
	p2 := NewProject("clean")
	_ = p2.AddStakeholder(Stakeholder{ID: "m", Marginal: true, ConsentRecorded: true})
	for _, ph := range Phases() {
		_ = p2.Engage(Engagement{StakeholderID: "m", Phase: ph, Level: Collaborating})
		p2.Reflect(ph, "power dynamics considered")
	}
	if got := p2.Audit(); len(got) != 0 {
		t.Errorf("clean project has findings: %+v", got)
	}
	if len(p2.Reflections(Evaluation)) != 1 {
		t.Error("reflection not recorded")
	}
}

func TestE4DiscoveryShape(t *testing.T) {
	rows, err := RunDiscovery(DefaultDiscoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	dd, pa := rows[0], rows[1]
	if dd.Pipeline != "data-driven" || pa.Pipeline != "participatory" {
		t.Fatal("pipeline order wrong")
	}
	// Paper claim (§1, §2): the data-driven agenda under-represents marginal
	// problems relative to their population share; the participatory agenda
	// does not.
	if !(dd.MarginalShare < dd.MarginalPopShare/2) {
		t.Errorf("data-driven marginal share %g not suppressed vs population %g",
			dd.MarginalShare, dd.MarginalPopShare)
	}
	if !(pa.MarginalShare > dd.MarginalShare*2) {
		t.Errorf("participatory marginal share %g should far exceed data-driven %g",
			pa.MarginalShare, dd.MarginalShare)
	}
	if !(pa.MarginalShare >= pa.MarginalPopShare*0.8) {
		t.Errorf("participatory marginal share %g should approach population share %g",
			pa.MarginalShare, pa.MarginalPopShare)
	}
	// Impact-wise the participatory agenda is at least as strong (it picks
	// by articulated impact).
	if !(pa.MeanAgendaImpact >= dd.MeanAgendaImpact) {
		t.Errorf("participatory mean impact %g below data-driven %g",
			pa.MeanAgendaImpact, dd.MeanAgendaImpact)
	}
}

func TestE4Validation(t *testing.T) {
	if _, err := RunDiscovery(DiscoveryConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestE4Deterministic(t *testing.T) {
	a, _ := RunDiscovery(DefaultDiscoveryConfig())
	b, _ := RunDiscovery(DefaultDiscoveryConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestGenerateProblemsSuppression(t *testing.T) {
	cfg := DefaultDiscoveryConfig()
	probs := GenerateProblems(cfg, rng.New(5))
	var mVis, mN, oVis, oN float64
	for _, p := range probs {
		if p.Marginal {
			mVis += p.Visibility
			mN++
		} else {
			oVis += p.Visibility
			oN++
		}
	}
	if mN == 0 || oN == 0 {
		t.Fatal("generator produced degenerate population")
	}
	if !(mVis/mN < 0.5*oVis/oN) {
		t.Errorf("marginal visibility %g not suppressed vs %g", mVis/mN, oVis/oN)
	}
}

func TestE10IterationConverges(t *testing.T) {
	rows, err := RunIteration(DefaultIterateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if !(last.IterativeFit > first.IterativeFit) {
		t.Errorf("fit did not improve: %g -> %g", first.IterativeFit, last.IterativeFit)
	}
	if !(last.IterativeFit > last.OneShotFit) {
		t.Errorf("iterative fit %g should beat one-shot %g", last.IterativeFit, last.OneShotFit)
	}
	if last.IterativeFit < 0.8 {
		t.Errorf("final fit %g should approach 1", last.IterativeFit)
	}
	for _, r := range rows {
		if r.OneShotFit != rows[0].OneShotFit {
			t.Error("one-shot baseline should be constant")
		}
		if r.IterativeFit < 0 || r.IterativeFit > 1 {
			t.Errorf("fit %g out of range", r.IterativeFit)
		}
	}
}

func TestE10Validation(t *testing.T) {
	if _, err := RunIteration(IterateConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestE10Deterministic(t *testing.T) {
	a, _ := RunIteration(DefaultIterateConfig())
	b, _ := RunIteration(DefaultIterateConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}
