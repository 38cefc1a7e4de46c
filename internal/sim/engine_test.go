package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/relay"
	"github.com/ethpbs/pbslab/internal/report"
)

// runWorkers runs the scenario with a fixed slot-engine worker count.
func runWorkers(t *testing.T, sc Scenario, workers int) *Result {
	t.Helper()
	res, err := RunOpts(context.Background(), sc, RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestRunWorkersGolden proves the slot engine's central invariant: its
// datasets and ground truth do not depend on the pool size, across seeds.
// The pool of one is the baseline; TestGoldenDigests in the root package
// pins its absolute output bytes.
func TestRunWorkersGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sc := shortScenario(3)
		sc.Seed = seed
		baseline := runWorkers(t, sc, 1)
		for _, workers := range []int{2, 8} {
			sameResult(t, baseline, runWorkers(t, sc, workers))
		}
	}
}

// TestRunWorkersGoldenArtifacts extends the equivalence to the rendered
// artifact bytes: every report emitted from a run with a pool of eight must
// be byte-for-byte the file a pool of one emits.
func TestRunWorkersGoldenArtifacts(t *testing.T) {
	render := func(res *Result) []report.Artifact {
		a, err := core.NewWithContext(context.Background(), res.Dataset,
			core.WithBuilderLabels(res.World.BuilderLabels()))
		if err != nil {
			t.Fatalf("analysis: %v", err)
		}
		return report.RenderAll(a, 1)
	}
	sc := shortScenario(3)
	sc.Seed = 1
	want := render(runWorkers(t, sc, 1))
	got := render(runWorkers(t, sc, 8))
	if len(want) != len(got) {
		t.Fatalf("artifact count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("artifact %d name: %s vs %s", i, got[i].Name, want[i].Name)
		}
		if !bytes.Equal(want[i].Data, got[i].Data) {
			t.Errorf("artifact %s differs between worker counts", want[i].Name)
		}
	}
}

// TestParallelKillAndResumeGolden is the kill-and-resume golden across pool
// sizes: a run interrupted at a day boundary and resumed, both with a pool
// of four, must match an uninterrupted run with a pool of one.
func TestParallelKillAndResumeGolden(t *testing.T) {
	sc := shortScenario(4)
	sc.Seed = 2
	baseline := runWorkers(t, sc, 1)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunOpts(ctx, sc, RunOptions{
		Workers:       4,
		CheckpointDir: dir,
		OnDay: func(day int) {
			if day == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	resumed, err := RunOpts(context.Background(), sc, RunOptions{
		Workers:       4,
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	sameResult(t, baseline, resumed)
}

// TestBlacklistForFollowsAlignedRelay checks a filtering builder's sanction
// set: a builder aligned with a relay enforces that relay's lagged
// schedule, any other filtering builder the registry's day-after rule. The
// short golden windows end before the first lagged OFAC wave, so only this
// test covers the difference.
func TestBlacklistForFollowsAlignedRelay(t *testing.T) {
	w, err := NewWorld(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	eng := newSlotEngine(w, &cachingView{c: w.Chain}, 1)
	var aligned *builderEntry
	for _, e := range w.Builders {
		if e.Spec.OFACFiltering && e.Spec.AlignedRelay == "Flashbots" {
			aligned = e
			break
		}
	}
	if aligned == nil {
		t.Fatal("no filtering builder aligned with Flashbots")
	}
	unaligned := &builderEntry{Spec: aligned.Spec}
	unaligned.Spec.AlignedRelay = ""

	addr := crypto.AddressFromSeed("ofac/nov2022/0")
	effective := ofac.NovemberUpdateDate.Add(36 * time.Hour) // midday after designation
	for _, c := range []struct {
		name string
		e    *builderEntry
		at   time.Time
		want bool
	}{
		{"aligned before the relay applied the wave", aligned, effective, false},
		{"unaligned on the day after designation", unaligned, effective, true},
		{"aligned once the relay applied the wave", aligned, relay.FlashbotsNovApplied.Add(time.Hour), true},
	} {
		if got := eng.blacklistFor(c.e, c.at)[addr]; got != c.want {
			t.Errorf("%s: blacklisted = %v, want %v", c.name, got, c.want)
		}
	}
}
