package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden.md files from the current registry output")

// TestGoldenReport pins every experiment's table to the committed golden
// file: any drift in a scenario's numbers, formatting, ordering, or the
// registry's report surface fails here with a line-level diff. Regenerate
// deliberately with `go test ./cmd/reportgen -run TestGoldenReport -update`.
func TestGoldenReport(t *testing.T) {
	checkGolden(t, "report.golden.md", "-workers", "4")
}

// TestGoldenAux pins the auxiliary community-network studies, which the
// report leaves out: cn-topology is the only output of the topology-aware
// simulator. Same -update flag as TestGoldenReport.
func TestGoldenAux(t *testing.T) {
	checkGolden(t, "aux.golden.md", "-workers", "4", "-only", "cn-maintenance,cn-topology")
}

// checkGolden runs reportgen with args and compares stdout with
// testdata/<name>, or rewrites it under -update.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("report drifted from %s (re-run with -update only if the change is intended):\n%s",
		golden, lineDiff(string(want), string(got)))
}

// lineDiff renders the first few divergent lines with one line of context —
// enough to see which experiment moved and how, without a diff dependency.
func lineDiff(want, got string) string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	n := len(wantLines)
	if len(gotLines) > n {
		n = len(gotLines)
	}
	for i := 0; i < n && shown < 10; i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w == g {
			continue
		}
		if shown == 0 && i > 0 {
			fmt.Fprintf(&b, "  line %d: %s\n", i, wantLines[i-1])
		}
		fmt.Fprintf(&b, "- line %d: %s\n+ line %d: %s\n", i+1, w, i+1, g)
		shown++
	}
	if shown == 10 {
		b.WriteString("  ... (more differences elided)\n")
	}
	fmt.Fprintf(&b, "golden %d lines, got %d lines", len(wantLines), len(gotLines))
	return b.String()
}
