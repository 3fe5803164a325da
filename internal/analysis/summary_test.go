package analysis

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// loadFixturePkg loads one testdata/src fixture as a pseudo-internal
// package for white-box fact assertions.
func loadFixturePkg(t *testing.T, fixture string, opts LoadOpts) (*Loader, *Package) {
	t.Helper()
	root := moduleRoot(t)
	l, err := NewLoaderOpts(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := "repro/internal/" + fixture + "fix"
	l.AddDir(path, filepath.Join(root, "internal", "analysis", "testdata", "src", fixture))
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, pkg
}

func TestSummariesCtxFacts(t *testing.T) {
	_, pkg := loadFixturePkg(t, "ctxflow", LoadOpts{})
	facts := BuildFacts([]*Package{pkg}, 1)
	prefix := pkg.Path + "."

	waits := facts.Lookup(prefix + "waitCtx")
	if waits == nil || waits.CtxParam < 0 {
		t.Fatalf("waitCtx summary = %+v, want a context parameter index", waits)
	}
	// Direct ambient blocker: passes a literal Background to waitCtx.
	if !facts.AmbientBlocker(prefix + "blockAmbient") {
		t.Error("blockAmbient not marked as ambient blocker")
	}
	// Transitive: the merge fixpoint must carry the mark one frame up.
	if !facts.AmbientBlocker(prefix + "blockTransitive") {
		t.Error("blockTransitive not marked as ambient blocker (fixpoint broken)")
	}
	// Forwarding its own context does not make a function ambient.
	if facts.AmbientBlocker(prefix + "Forward") {
		t.Error("Forward forwards ctx but is marked ambient")
	}
	if facts.AmbientBlocker(prefix + "pure") {
		t.Error("pure never blocks but is marked ambient")
	}
}

func TestSummariesAliasAndAtomicFacts(t *testing.T) {
	_, aliasPkg := loadFixturePkg(t, "aliasret", LoadOpts{})
	facts := BuildFacts([]*Package{aliasPkg}, 1)
	view := facts.Lookup(aliasPkg.Path + ".view")
	if view == nil {
		t.Fatal("no summary for view")
	}
	want := []string{"var.registry"}
	if got := view.AliasReturns["0"]; !reflect.DeepEqual(got, want) {
		t.Errorf("view.AliasReturns[0] = %v, want %v", got, want)
	}

	_, atomicPkg := loadFixturePkg(t, "atomicmix", LoadOpts{})
	afacts := BuildFacts([]*Package{atomicPkg}, 1)
	if !afacts.AtomicField(atomicPkg.Path + ".counter.n") {
		t.Error("counter.n not in the atomic field set")
	}
	if afacts.AtomicField(atomicPkg.Path + ".counter.name") {
		t.Error("counter.name wrongly in the atomic field set")
	}
	if !afacts.AtomicField("var." + atomicPkg.Path + ".hits") {
		t.Error("package var hits not in the atomic field set")
	}
}

func TestReachableFollowsCallGraph(t *testing.T) {
	_, pkg := loadFixturePkg(t, "undoscope", LoadOpts{})
	facts := BuildFacts([]*Package{pkg}, 1)
	prefix := pkg.Path + "."
	reach := facts.Reachable([]string{prefix + "Apply", prefix + "Revert"})
	for _, id := range []string{"Apply", "Revert", "record"} {
		if !reach[prefix+id] {
			t.Errorf("%s not reachable from the roots", id)
		}
	}
	for _, id := range []string{"Rogue", "Bump", "Seed"} {
		if reach[prefix+id] {
			t.Errorf("%s wrongly reachable from the roots", id)
		}
	}
}

func TestBuildFactsWorkerCountInvariant(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.All()
	if err != nil {
		t.Fatal(err)
	}
	summariesJSON := func(workers int) []byte {
		facts := BuildFacts(pkgs, workers)
		ids := make([]string, 0, len(facts.byID))
		for id := range facts.byID {
			ids = append(ids, id)
		}
		b, err := json.Marshal(struct {
			N       int
			Ambient []string
		}{len(ids), sortedKeys(facts.ambient)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := summariesJSON(1)
	parallelJSON := summariesJSON(4)
	if string(serial) != string(parallelJSON) {
		t.Errorf("facts differ across worker counts:\n-1-\n%s\n-4-\n%s", serial, parallelJSON)
	}
}
