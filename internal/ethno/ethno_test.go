package ethno

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func newStudy(t *testing.T, sites ...Site) *Study {
	t.Helper()
	s := NewStudy()
	for _, site := range sites {
		if err := s.AddSite(site); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func basicSite(id string) Site {
	return Site{ID: id, MaxInsight: 100, Tau: 20, TravelDays: 2}
}

func TestAddSiteValidation(t *testing.T) {
	s := NewStudy()
	if err := s.AddSite(Site{}); err == nil {
		t.Error("empty site accepted")
	}
	if err := s.AddSite(Site{ID: "a", MaxInsight: 0, Tau: 1}); err == nil {
		t.Error("zero insight accepted")
	}
	if err := s.AddSite(basicSite("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSite(basicSite("a")); err == nil {
		t.Error("duplicate accepted")
	}
	if _, ok := s.Site("a"); !ok {
		t.Error("site lookup failed")
	}
}

func TestRecordAndNotes(t *testing.T) {
	s := newStudy(t, basicSite("a"), basicSite("b"))
	if err := s.Record(FieldNote{SiteID: "nope", Day: 1}); err == nil {
		t.Error("note at unknown site accepted")
	}
	_ = s.Record(FieldNote{SiteID: "a", Day: 1, Kind: Observation, Text: "x"})
	_ = s.Record(FieldNote{SiteID: "b", Day: 2, Kind: Interview, Text: "y"})
	_ = s.Record(FieldNote{SiteID: "a", Day: 3, Kind: Artifact, Text: "z"})
	if got := len(s.Notes("")); got != 3 {
		t.Errorf("all notes = %d", got)
	}
	if got := len(s.Notes("a")); got != 2 {
		t.Errorf("site-a notes = %d", got)
	}
}

func TestNoteKindString(t *testing.T) {
	if Observation.String() != "observation" || Reflection.String() != "reflection" {
		t.Error("kind strings wrong")
	}
}

func TestSimulateDiminishingReturns(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	short, err := s.Simulate(Schedule{{SiteID: "a", Days: 12}}, AccrualParams{})
	if err != nil {
		t.Fatal(err)
	}
	long, err := s.Simulate(Schedule{{SiteID: "a", Days: 22}}, AccrualParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !(long.Insight > short.Insight) {
		t.Error("longer visit should extract more")
	}
	// Doubling observation time should NOT double insight (diminishing).
	if long.Insight >= 2*short.Insight {
		t.Errorf("no diminishing returns: %g vs %g", long.Insight, short.Insight)
	}
}

func TestSimulateTravelOverhead(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	// A visit shorter than travel time observes nothing.
	res, err := s.Simulate(Schedule{{SiteID: "a", Days: 1}}, AccrualParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insight != 0 || res.ObservationDays != 0 {
		t.Errorf("sub-travel visit yielded insight: %+v", res)
	}
	if res.SitesCovered != 0 {
		t.Error("site with zero observation should not count as covered")
	}
}

func TestSimulateUnknownSite(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	if _, err := s.Simulate(Schedule{{SiteID: "zz", Days: 5}}, AccrualParams{}); err == nil {
		t.Error("unknown site accepted")
	}
}

func TestSimulateReflectionImprovesExtraction(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	// Same observation time; with reflection gain, two visits beat one
	// despite extra travel, when the gain is large enough.
	params := AccrualParams{ReflectGain: 0.3}
	one, err := s.Simulate(Schedule{{SiteID: "a", Days: 42}}, params)
	if err != nil {
		t.Fatal(err)
	}
	two, err := s.Simulate(Schedule{{SiteID: "a", Days: 21}, {SiteID: "a", Days: 21}}, params)
	if err != nil {
		t.Fatal(err)
	}
	if two.Reflections != 1 {
		t.Fatalf("reflections = %d, want 1", two.Reflections)
	}
	if !(two.Insight > one.Insight) {
		t.Errorf("patchwork with strong reflection %g should beat continuous %g", two.Insight, one.Insight)
	}
}

func TestSimulateNoReflectionMeansContinuousWins(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	params := AccrualParams{} // no reflection benefit
	one, _ := s.Simulate(Schedule{{SiteID: "a", Days: 42}}, params)
	two, _ := s.Simulate(Schedule{{SiteID: "a", Days: 21}, {SiteID: "a", Days: 21}}, params)
	if !(one.Insight > two.Insight) {
		t.Errorf("without reflection, continuous %g should beat split %g (travel paid twice)", one.Insight, two.Insight)
	}
}

func TestSimulateInsightBounded(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	res, _ := s.Simulate(Schedule{{SiteID: "a", Days: 10000}}, AccrualParams{})
	if res.Insight > 100+1e-9 {
		t.Errorf("insight %g exceeds site maximum", res.Insight)
	}
	if res.Insight < 99 {
		t.Errorf("arbitrarily long stay should nearly exhaust the site: %g", res.Insight)
	}
}

func TestRapidPenalty(t *testing.T) {
	s := newStudy(t, basicSite("a"))
	slow := AccrualParams{}
	fast := AccrualParams{RapidPenalty: 2, ShortVisit: 5}
	// 4 observation days (6 total - 2 travel) is below the threshold.
	a, _ := s.Simulate(Schedule{{SiteID: "a", Days: 6}}, slow)
	b, _ := s.Simulate(Schedule{{SiteID: "a", Days: 6}}, fast)
	if !(b.Insight < a.Insight) {
		t.Errorf("rapid penalty should reduce insight: %g vs %g", b.Insight, a.Insight)
	}
}

func TestE7Shapes(t *testing.T) {
	rows, err := RunE7(DefaultE7Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byStrategy := map[Strategy]E7Row{}
	for _, r := range rows {
		byStrategy[r.Strategy] = r
	}
	cont := byStrategy[StrategyContinuous]
	patch := byStrategy[StrategyPatchwork]
	rapid := byStrategy[StrategyRapid]

	// Paper claim (§3): patchwork sustains depth under limited time — under
	// the default parameters it matches or beats a single continuous stay
	// while covering more sites.
	if !(patch.Insight > cont.Insight) {
		t.Errorf("patchwork insight %g should beat continuous %g", patch.Insight, cont.Insight)
	}
	if !(patch.SitesCovered > cont.SitesCovered) {
		t.Errorf("patchwork coverage %d should beat continuous %d", patch.SitesCovered, cont.SitesCovered)
	}
	if patch.Reflections == 0 || rapid.Reflections == 0 {
		t.Error("multi-visit strategies should reflect")
	}
	// Rapid pays more travel overhead per budget than patchwork.
	if !(rapid.TravelOverhead > patch.TravelOverhead) {
		t.Errorf("rapid travel overhead %g should exceed patchwork %g", rapid.TravelOverhead, patch.TravelOverhead)
	}
	// Rapid's depth penalty keeps it below patchwork.
	if !(rapid.Insight < patch.Insight) {
		t.Errorf("rapid insight %g should trail patchwork %g", rapid.Insight, patch.Insight)
	}
	for _, r := range rows {
		if math.Abs(r.BudgetDays-60) > 1e-9 {
			t.Errorf("budget = %g", r.BudgetDays)
		}
		if r.Insight <= 0 {
			t.Errorf("%s extracted nothing", r.Strategy)
		}
	}
}

func TestE7Deterministic(t *testing.T) {
	a, err := RunE7(DefaultE7Config())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE7(DefaultE7Config())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Insight != b[i].Insight || a[i].SitesCovered != b[i].SitesCovered {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestTriangulate(t *testing.T) {
	notes := []FieldNote{
		{SiteID: "a", Day: 10, Kind: Observation, Text: "storm damaged the relay antenna"},
		{SiteID: "a", Day: 30, Kind: Interview, Text: "operator described a fiber cut"},
	}
	anomalies := []Anomaly{
		{Day: 11, Label: "throughput collapse"},
		{Day: 29, Label: "loss spike"},
		{Day: 50, Label: "latency shift"},
	}
	res := Triangulate(notes, anomalies, 2)
	if res.Anomalies != 3 || res.Explained != 2 {
		t.Fatalf("triangulation = %+v", res)
	}
	if math.Abs(res.ExplainedShare()-2.0/3) > 1e-9 {
		t.Errorf("explained share = %g", res.ExplainedShare())
	}
	if len(res.Matches[0]) != 1 || res.Matches[0][0] != 0 {
		t.Errorf("matches = %v", res.Matches)
	}
}

func TestTriangulateEmpty(t *testing.T) {
	res := Triangulate(nil, nil, 5)
	if res.ExplainedShare() != 0 || res.Anomalies != 0 {
		t.Errorf("empty triangulation = %+v", res)
	}
}

func TestScheduleTotalDays(t *testing.T) {
	sc := Schedule{{SiteID: "a", Days: 3}, {SiteID: "b", Days: 4.5}}
	if sc.TotalDays() != 7.5 {
		t.Errorf("total = %g", sc.TotalDays())
	}
}

// TestRunE7RejectsNoSites: E7 without a site to visit is an input error, both
// from RunE7 and through the registered scenario, not an index panic.
func TestRunE7RejectsNoSites(t *testing.T) {
	sc, ok := experiment.Get("E7")
	if !ok {
		t.Fatal("E7 is not registered")
	}
	for _, sites := range []int{0, -2} {
		cfg := DefaultE7Config()
		cfg.Sites = sites
		if _, err := RunE7(cfg); err == nil {
			t.Errorf("RunE7 with %d sites succeeded, want an error", sites)
		}
		job := experiment.NewJob(sc)
		job.Params = experiment.Values{"sites": sites}
		if _, err := (&experiment.Runner{}).RunOne(context.Background(), job); err == nil || strings.Contains(err.Error(), "panic") {
			t.Errorf("E7 scenario with %d sites: err = %v, want an input error", sites, err)
		}
	}
}
