package ixp

import (
	"context"
	"reflect"
	"testing"
)

// TestSweepCtxMatchesWorkers pins every ctx-first sweep across worker
// counts: under a live (never-cancelled) context, the fanned-out rows equal
// the serial background-context rows.
func TestSweepCtxMatchesWorkers(t *testing.T) {
	bg := context.Background()
	live, stop := context.WithCancel(bg)
	defer stop()

	wantCirc, err := CircumventionSweepCtx(bg, 3, 0.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotCirc, err := CircumventionSweepCtx(live, 3, 0.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCirc, wantCirc) {
		t.Error("circumvention rows differ between workers 1 and 3")
	}

	presences := []float64{0, 0.5, 1}
	wantGrav, err := GravitySweepCtx(bg, 12, 3, presences, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotGrav, err := GravitySweepCtx(live, 12, 3, presences, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotGrav, wantGrav) {
		t.Error("gravity rows differ between workers 1 and 3")
	}

	base := EconConfig{SouthISPs: 12, LocalIXPs: 3, ContentPresence: 0.5,
		ContentVolume: 10, TransitPricePerUnit: 2, Seed: 7}
	costs := []float64{1, 25, 100}
	wantEcon, err := EconomicSweepCtx(bg, base, costs, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotEcon, err := EconomicSweepCtx(live, base, costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEcon, wantEcon) {
		t.Error("economic rows differ between workers 1 and 3")
	}
}

// TestSweepCtxCancelled checks cancellation stops each sweep with an error
// instead of partial rows.
func TestSweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := CircumventionSweepCtx(ctx, 3, 0.5, 2, 1); err == nil {
		t.Errorf("CircumventionSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	if rows, err := GravitySweepCtx(ctx, 12, 3, []float64{0, 1}, 7, 1); err == nil {
		t.Errorf("GravitySweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	base := EconConfig{SouthISPs: 12, LocalIXPs: 3, ContentPresence: 0.5,
		ContentVolume: 10, TransitPricePerUnit: 2, Seed: 7}
	if rows, err := EconomicSweepCtx(ctx, base, []float64{1, 100}, 1); err == nil {
		t.Errorf("EconomicSweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
	if rows, err := PolicySweepCtx(ctx, 3, 0.5, []float64{0, 0.5}, 1); err == nil {
		t.Errorf("PolicySweepCtx on a cancelled context returned %d rows, want error", len(rows))
	}
}
