package pbslab_test

// Absolute output digests. Every other golden test compares one code path
// with another, which cannot catch a change that moves both paths the same
// way. This one pins the SHA-256 of pbslab's output itself: manifest.json
// (which covers all 19 artifacts and every corpus file) and each chunked
// corpus file, for seeds 1–3 over a short window, at sim workers 1 and 2 and
// after a kill-and-resume. The digests live in testdata/golden/seedN.sha256
// in sha256sum format, so they can also be checked by hand:
//
//	pbslab -days 4 -blocks-per-day 12 -seed 1 -quiet -figures out/g -dump-dataset
//	(cd out/g && sha256sum -c ../../testdata/golden/seed1.sha256)
//
// After an intended output change, rewrite them and review what moved:
//
//	go test -run TestGoldenDigests -update -v .

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/ethpbs/pbslab/internal/cli"
	"github.com/ethpbs/pbslab/internal/dsio"
	pbsreport "github.com/ethpbs/pbslab/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/golden digests from this run and print what changed")

const (
	goldenDays         = 4
	goldenBlocksPerDay = 12
	// goldenKillDay is the day boundary the kill-and-resume run stops at.
	goldenKillDay = 2
)

// goldenRun is one way of producing a seed's output directory.
type goldenRun struct {
	name    string
	workers int
	kill    bool // interrupt at goldenKillDay, then resume from the checkpoint
}

var goldenRuns = []goldenRun{
	{name: "workers=1", workers: 1},
	{name: "workers=2", workers: 2},
	{name: "kill-and-resume", workers: 2, kill: true},
}

func TestGoldenDigests(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "golden", fmt.Sprintf("seed%d.sha256", seed))
			for i, run := range goldenRuns {
				got := goldenDigests(t, seed, run)
				if i == 0 && *update {
					updateGolden(t, path, got)
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if diff := digestDiff(string(want), got); diff != "" {
					t.Errorf("seed %d, %s: output differs from %s:\n%s", seed, run.name, path, diff)
				}
			}
		})
	}
}

// goldenDigests runs the pbslab -dump-dataset pipeline for one seed and
// returns the sha256sum listing of manifest.json and the corpus files.
func goldenDigests(t *testing.T, seed uint64, run goldenRun) string {
	t.Helper()
	cfg := cli.Register(flag.NewFlagSet("pbslab", flag.ContinueOnError))
	cfg.Days, cfg.BlocksPerDay, cfg.Seed, cfg.SimWorkers = goldenDays, goldenBlocksPerDay, seed, run.workers
	if run.kill {
		cfg.CheckpointDir = t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		_, err := cfg.Simulate(ctx, func(day int) {
			if day == goldenKillDay {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run: err = %v, want context.Canceled", run.name, err)
		}
		cfg.Resume = true
	}
	res, err := cfg.Simulate(context.Background(), nil)
	if err != nil {
		t.Fatalf("%s: simulate: %v", run.name, err)
	}
	a, err := cfg.AnalyzeContext(context.Background(), res)
	if err != nil {
		t.Fatalf("%s: analyze: %v", run.name, err)
	}
	files, err := dsio.EncodeChunked(res.Dataset, res.World.BuilderLabels())
	if err != nil {
		t.Fatalf("%s: encode corpus: %v", run.name, err)
	}
	var extra []pbsreport.Artifact
	for _, f := range files {
		extra = append(extra, pbsreport.Artifact{Name: f.Name, Data: f.Data})
	}
	dir := t.TempDir()
	if err := pbsreport.WriteAllExtraContext(context.Background(), a, dir, extra...); err != nil {
		t.Fatalf("%s: write: %v", run.name, err)
	}

	names := []string{"manifest.json"}
	for _, f := range files {
		names = append(names, filepath.ToSlash(f.Name))
	}
	sort.Strings(names[1:])
	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), name)
	}
	return b.String()
}

// digestDiff lists the files whose digest differs between two sha256sum
// listings, or "" when they are identical.
func digestDiff(want, got string) string {
	parse := func(s string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			if sum, name, ok := strings.Cut(line, "  "); ok {
				m[name] = sum
			}
		}
		return m
	}
	w, g := parse(want), parse(got)
	names := map[string]bool{}
	for n := range w {
		names[n] = true
	}
	for n := range g {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var b strings.Builder
	for _, n := range sorted {
		switch {
		case w[n] == "":
			fmt.Fprintf(&b, "  %s: new file %.16s…\n", n, g[n])
		case g[n] == "":
			fmt.Fprintf(&b, "  %s: missing (was %.16s…)\n", n, w[n])
		case w[n] != g[n]:
			fmt.Fprintf(&b, "  %s: %.16s… -> %.16s…\n", n, w[n], g[n])
		}
	}
	return b.String()
}

// updateGolden rewrites path with got and logs which digests changed.
func updateGolden(t *testing.T, path, got string) {
	t.Helper()
	old, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if bytes.Equal(old, []byte(got)) {
		t.Logf("%s: unchanged", path)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: rewritten\n%s", path, digestDiff(string(old), got))
}
