package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestSmoke runs each scenario this binary links (plus -list and -json)
// twice via `go run .`, requiring deterministic output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping `go run` smoke test in -short mode")
	}
	out := string(clitest.RunCLI(t))
	if !strings.Contains(out, "E1 — ") {
		t.Fatalf("default run did not render E1:\n%s", out)
	}
	clitest.RunCLI(t, "-scenario", "E2", "-workers", "2")
	clitest.RunCLI(t, "-scenario", "E14", "-workers", "2")
	clitest.RunCLI(t, "-scenario", "E16", "-json")
	list := string(clitest.RunCLI(t, "-list"))
	for _, id := range []string{"E1 — ", "E2 — ", "E14 — ", "E16 — "} {
		if !strings.Contains(list, id) {
			t.Fatalf("-list missing %q:\n%s", id, list)
		}
	}
}

// TestSweepsWithoutStubsExitOne checks that E14 and E16 with no stub to
// originate the victim prefix fail with exit code 1 and a diagnostic
// instead of a panic.
func TestSweepsWithoutStubsExitOne(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build test in -short mode")
	}
	for _, args := range [][]string{
		{"-scenario", "E14", "-stubs", "-5"},
		{"-scenario", "E16", "-stubs", "0"},
	} {
		out := string(runExit(t, 1, args...))
		if !strings.Contains(out, "at least one originating stub") || strings.Contains(out, "panic") {
			t.Errorf("%v: want the originating-stub diagnostic and no panic, got:\n%s", args, out)
		}
	}
}

// runExit builds this package into a temporary binary, runs it once with
// args, and fails t unless it exits with code want. It returns the combined
// stdout and stderr. The binary is built rather than run through `go run`,
// which reports every non-zero exit as 1, so the exit code is checked
// exactly.
func runExit(t *testing.T, want int, args ...string) []byte {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ixpsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	code := 0
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	if code != want {
		t.Fatalf("%v exited %d, want %d\n%s", args, code, want, out)
	}
	return out
}
