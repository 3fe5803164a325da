package bgpsim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestSweepScenariosRejectStubsWithoutOrigins pins that E14 and E16 fail
// closed, with an error rather than a panic, when the stubs param leaves no
// originating stub to draw the victim from.
func TestSweepScenariosRejectStubsWithoutOrigins(t *testing.T) {
	runner := &experiment.Runner{Workers: 1, ScenarioWorkers: 1}
	for _, id := range []string{"E14", "E16"} {
		sc, ok := experiment.Get(id)
		if !ok {
			t.Fatalf("scenario %s not registered", id)
		}
		for _, stubs := range []int{0, -5} {
			t.Run(fmt.Sprintf("%s/stubs=%d", id, stubs), func(t *testing.T) {
				res, err := runner.RunOne(context.Background(), experiment.Job{
					Scenario: sc, Params: experiment.Values{"stubs": stubs}, Seed: sc.DefaultSeed(),
				})
				if err == nil {
					t.Fatalf("RunOne returned %d tables, want an error", len(res.Tables))
				}
				if !strings.Contains(err.Error(), "at least one originating stub") {
					t.Errorf("error = %v, want the originating-stub diagnostic", err)
				}
			})
		}
	}
}
