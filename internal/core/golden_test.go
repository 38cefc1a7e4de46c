package core_test

// Absolute render digests for the analysis engine. TestRenderDigests pins
// the SHA-256 of every report.RenderAll artifact for seeds 1–3 of a short
// simulated window, at analysis workers 1 and 8, so any float
// reassociation, shard-boundary mistake or map-order leak shows up as a
// moved digest (DESIGN.md §6). The digests live in
// testdata/golden/renderN.sha256 in sha256sum format. After an intended
// output change, rewrite them and review what moved:
//
//	go test ./internal/core -run TestRenderDigests -update -v

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden render digests from this run and print what changed")

// goldenDataset simulates a short window for one seed.
func goldenDataset(t testing.TB, seed uint64, days int) *sim.Result {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.Seed = seed
	sc.End = sc.Start.Add(time.Duration(days) * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Validators = 200
	sc.Demand.Users = 120
	sc.Demand.TxPerBlock = sim.Flat(30)
	sc.SmallBuilderCount = 20
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRenderDigests(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := goldenDataset(t, seed, 4)
			labels := res.World.BuilderLabels()
			path := filepath.Join("testdata", "golden", fmt.Sprintf("render%d.sha256", seed))
			for i, workers := range []int{1, 8} {
				a := core.New(res.Dataset, core.WithBuilderLabels(labels), core.WithWorkers(workers))
				got := renderDigests(t, report.RenderAll(a, workers))
				if i == 0 && *update {
					updateRenderDigests(t, path, got)
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if diff := lineDiff(string(want), got); diff != "" {
					t.Errorf("seed %d, workers %d: render differs from %s:\n%s", seed, workers, path, diff)
				}
			}
		})
	}
}

// renderDigests returns the sha256sum listing of the artifacts, in render
// order.
func renderDigests(t *testing.T, arts []report.Artifact) string {
	t.Helper()
	var b strings.Builder
	for _, art := range arts {
		if art.Err != nil {
			t.Fatalf("%s: %v", art.Name, art.Err)
		}
		sum := sha256.Sum256(art.Data)
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), art.Name)
	}
	return b.String()
}

// lineDiff lists the lines that differ between two listings, or "" when
// they are identical.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "  - %s\n  + %s\n", wl, gl)
		}
	}
	return b.String()
}

// updateRenderDigests rewrites path with got and logs which lines changed.
func updateRenderDigests(t *testing.T, path, got string) {
	t.Helper()
	old, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if string(old) == got {
		t.Logf("%s: unchanged", path)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: rewritten\n%s", path, lineDiff(string(old), got))
}

// firstDiffContext returns a small window around the first differing byte.
func firstDiffContext(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s...", a[lo:hi])
}

// TestEngineRace hammers the memoized engine from many goroutines while the
// render worker pool runs, so `go test -race` exercises every concurrency
// seam: parallel classification, the sharded index build, sync.Once memos,
// keyed memos, and per-day reductions.
func TestEngineRace(t *testing.T) {
	res := goldenDataset(t, 1, 3)
	a := core.New(res.Dataset,
		core.WithBuilderLabels(res.World.BuilderLabels()),
		core.WithWorkers(8))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Figure3PaymentShares()
			a.Figure4PBSShare()
			a.Figure5RelayShares()
			a.Figure6HHI()
			a.Figure7BuildersPerRelay()
			a.Figure8BuilderShares()
			a.Figure9BlockValue()
			a.Figure10ProposerProfit()
			a.Figures11And12BuilderBoxes(11)
			a.Figure13BlockSize()
			a.Figure14PrivateTxShare()
			a.Figure15MEVPerBlock()
			a.Figure16MEVValueShare()
			a.Figure17CensoringShare()
			a.Figure18SanctionedShare()
			a.Figure19ProfitSplit()
			a.Figure20To22MEVKind(mev.KindSandwich)
			a.ClassifierCoverage()
			a.Table4RelayTrust()
			a.OFACUpdateLag(4)
			a.InclusionDelay()
			a.Clusters()
		}()
	}
	// Render concurrently with the direct calls above.
	arts := report.RenderAll(a, 8)
	wg.Wait()

	if len(arts) == 0 {
		t.Fatal("no artifacts rendered")
	}
	// A second render must reproduce the first bytes exactly (memo or not).
	again := report.RenderAll(a, 3)
	for i := range arts {
		if !bytes.Equal(arts[i].Data, again[i].Data) {
			t.Errorf("%s: repeated render differs", arts[i].Name)
		}
	}
}

// TestWithoutMemoMatchesMemoized checks the memo layer is transparent.
func TestWithoutMemoMatchesMemoized(t *testing.T) {
	res := goldenDataset(t, 2, 3)
	labels := res.World.BuilderLabels()
	memoized := core.New(res.Dataset, core.WithBuilderLabels(labels))
	fresh := core.New(res.Dataset, core.WithBuilderLabels(labels), core.WithoutMemo())

	w := report.RenderAll(memoized, 4)
	g := report.RenderAll(fresh, 4)
	for i := range w {
		if !bytes.Equal(w[i].Data, g[i].Data) {
			t.Errorf("%s: WithoutMemo render differs", w[i].Name)
		}
	}
}
