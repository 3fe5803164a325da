package analysis

import "testing"

// TestRepoIsLintClean is the self-audit: the tree that ships the linters
// must itself be clean under them. Every intentional exception carries a
// reasoned //humnet:allow comment (counted as suppressed below) instead of
// silently passing.
func TestRepoIsLintClean(t *testing.T) {
	root := moduleRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; the module scan is broken", len(pkgs))
	}
	res := Run(l.Fset, pkgs, All(), Options{Workers: 1})
	for _, f := range res.Findings {
		t.Errorf("lint finding: %s", f)
	}
	t.Logf("self-audit: %d packages clean, %d documented suppressions", len(pkgs), res.Suppressed)
}
