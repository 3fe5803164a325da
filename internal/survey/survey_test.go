package survey

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestInstrumentValidate(t *testing.T) {
	ok := Instrument{
		Title: "Operator attitudes",
		Questions: []Question{
			{ID: "q1", Text: "Satisfaction", Kind: Likert, Scale: 5},
			{ID: "q2", Text: "Role", Kind: MultipleChoice, Options: []string{"op", "eng"}},
			{ID: "q3", Text: "Comments", Kind: FreeText},
		},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Instrument{
		{},
		{Questions: []Question{{ID: ""}}},
		{Questions: []Question{{ID: "a"}, {ID: "a"}}},
		{Questions: []Question{{ID: "a", Kind: Likert, Scale: 1}}},
		{Questions: []Question{{ID: "a", Kind: MultipleChoice}}},
	}
	for i, ins := range bad {
		if err := ins.Validate(); err == nil {
			t.Errorf("bad instrument %d accepted", i)
		}
	}
}

func TestQuestionKindString(t *testing.T) {
	if Likert.String() != "likert" || FreeText.String() != "free-text" {
		t.Error("kind strings wrong")
	}
}

func TestSynthPopulationShape(t *testing.T) {
	pop := SynthPopulation(DefaultStrata(), 5, rng.New(1))
	if len(pop.People) != 1000 {
		t.Fatalf("population = %d", len(pop.People))
	}
	if got := len(pop.Strata()); got != 4 {
		t.Errorf("strata = %d", got)
	}
	// Frame coverage: hard-to-reach strata mostly absent.
	frameByStratum := make(map[string]float64)
	sizeByStratum := make(map[string]float64)
	for _, p := range pop.People {
		sizeByStratum[p.Stratum]++
		if p.InFrame {
			frameByStratum[p.Stratum]++
		}
	}
	hyper := frameByStratum["hyperscaler-op"] / sizeByStratum["hyperscaler-op"]
	rural := frameByStratum["rural-operator"] / sizeByStratum["rural-operator"]
	if !(hyper > 0.85 && rural < 0.2) {
		t.Errorf("frame coverage hyper=%g rural=%g", hyper, rural)
	}
	// Ties exist and exclude self.
	for _, p := range pop.People[:50] {
		for _, c := range p.Contacts {
			if c == p.ID {
				t.Fatal("self tie")
			}
			if c < 0 || c >= len(pop.People) {
				t.Fatal("dangling tie")
			}
		}
	}
}

func TestTrueMeanBetweenStratumMeans(t *testing.T) {
	pop := SynthPopulation(DefaultStrata(), 3, rng.New(2))
	m := pop.TrueMean()
	if !(m > 0.25 && m < 0.8) {
		t.Errorf("true mean = %g", m)
	}
}

func TestRandomSampleRespectsFrame(t *testing.T) {
	pop := SynthPopulation(DefaultStrata(), 3, rng.New(3))
	res := RandomSample(pop, 200, rng.New(4))
	if res.Contacted != 200 {
		t.Errorf("contacted = %d", res.Contacted)
	}
	for _, id := range res.Respondents {
		if !pop.People[id].InFrame {
			t.Fatal("random sample reached someone outside the frame")
		}
	}
}

func TestStratifiedCoversFrameStrata(t *testing.T) {
	pop := SynthPopulation(DefaultStrata(), 3, rng.New(5))
	res := StratifiedSample(pop, 40, rng.New(6))
	if res.Contacted == 0 || len(res.Respondents) == 0 {
		t.Fatalf("stratified result = %+v", res)
	}
	for _, id := range res.Respondents {
		if !pop.People[id].InFrame {
			t.Fatal("stratified sample left the frame")
		}
	}
}

func TestSnowballReachesOffFrame(t *testing.T) {
	pop := SynthPopulation(DefaultStrata(), 6, rng.New(7))
	res := Snowball(pop, 40, 4, 3, 400, rng.New(8))
	off := 0
	for _, id := range res.Respondents {
		if !pop.People[id].InFrame {
			off++
		}
	}
	if off == 0 {
		t.Error("snowball never left the sampling frame")
	}
	if res.Contacted > 400 {
		t.Errorf("budget exceeded: %d", res.Contacted)
	}
	// No duplicate respondents.
	seen := make(map[int]bool)
	for _, id := range res.Respondents {
		if seen[id] {
			t.Fatal("duplicate respondent")
		}
		seen[id] = true
	}
}

func TestEstimateMeanEmpty(t *testing.T) {
	pop := SynthPopulation(DefaultStrata(), 3, rng.New(9))
	if !math.IsNaN(EstimateMean(pop, nil, 0.05, rng.New(10))) {
		t.Error("empty estimate should be NaN")
	}
}

func TestE8Shapes(t *testing.T) {
	rows, err := RunE8(DefaultE8Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byDesign := map[Design]E8Row{}
	for _, r := range rows {
		byDesign[r.Design] = r
	}
	rnd := byDesign[DesignRandom]
	str := byDesign[DesignStratified]
	snow := byDesign[DesignSnowball]

	// Claim (§6.2 fn.3): frame + nonresponse bias make random/stratified
	// designs miss the marginal strata and overestimate the population
	// attitude; snowball reaches them through ties.
	if !(rnd.MarginalShare < rnd.MarginalPop/2) {
		t.Errorf("random marginal share %g not suppressed vs population %g",
			rnd.MarginalShare, rnd.MarginalPop)
	}
	if !(snow.MarginalShare > 2*rnd.MarginalShare) {
		t.Errorf("snowball marginal share %g should far exceed random %g",
			snow.MarginalShare, rnd.MarginalShare)
	}
	if !(rnd.Bias > 0.1) {
		t.Errorf("random design bias %g should be large and positive", rnd.Bias)
	}
	if !(math.Abs(snow.Bias) < math.Abs(rnd.Bias)) {
		t.Errorf("snowball bias %g should beat random %g", snow.Bias, rnd.Bias)
	}
	// Stratified helps allocation but cannot fix frame bias.
	if !(str.MarginalShare < str.MarginalPop) {
		t.Errorf("stratified marginal share %g should still trail population %g",
			str.MarginalShare, str.MarginalPop)
	}
	for _, r := range rows {
		if r.Respondents == 0 {
			t.Errorf("%s got no respondents", r.Design)
		}
		if r.ResponseRate < 0 || r.ResponseRate > 1 {
			t.Errorf("%s response rate %g", r.Design, r.ResponseRate)
		}
	}
}

func TestE8Validation(t *testing.T) {
	if _, err := RunE8(E8Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestE8Deterministic(t *testing.T) {
	a, _ := RunE8(DefaultE8Config())
	b, _ := RunE8(DefaultE8Config())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}
