package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ethpbs/pbslab/internal/cli"
	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
	"github.com/ethpbs/pbslab/internal/types"
)

const (
	// studyBlocksPerDay is the batch workloads' density: the paper's full
	// 198-day window at 6 blocks/day is 1183 blocks, about ten seconds
	// of work per pass on a 2-core host.
	studyBlocksPerDay = 6
	// warmupDays and warmupSeed fix the window of study-full's set-up
	// passes. The seed is fixed so that every run warms up on the same
	// work: the CPU cost of a short window differs by up to 1.6x from
	// scenario seed to scenario seed, which setup_s would otherwise report
	// as noise. Four weeks is about one CPU second, long enough that timer
	// and scheduling noise stay small next to it.
	warmupDays = 28
	warmupSeed = 1
	// artifactCount is the rendered figure and table set.
	artifactCount = 19
)

// scenario builds the simulation scenario exactly as pbslab's flags would
// (days 0 = the full paper window).
func scenario(seed uint64, days, blocksPerDay int) (sim.Scenario, error) {
	cfg := cli.Register(flag.NewFlagSet("pbslab", flag.ContinueOnError))
	cfg.Seed, cfg.Days, cfg.BlocksPerDay = seed, days, blocksPerDay
	return cfg.Scenario()
}

// recordWindow adds the corpus window to the run metadata.
func (b *bench) recordWindow(sc sim.Scenario, blocks int) {
	b.meta["window"] = sc.Start.Format("2006-01-02") + ".." + sc.End.Format("2006-01-02")
	b.meta["window_days"] = int(sc.End.Sub(sc.Start).Hours()/24) + 1
	b.meta["blocks_per_day"] = sc.BlocksPerDay
	b.meta["corpus_seed"] = sc.Seed
	b.meta["blocks"] = blocks
}

// simSamples holds the traced sim's slot and day wall times, split by
// whether they came from a measured pass or from set-up.
type simSamples struct {
	slotUS, dayMS     [2][]float64 // [0] set-up, [1] measured
	lastSlot, lastDay time.Time
	measured          bool
}

// pick returns the measured samples if any, else the set-up ones.
func (s *simSamples) pick() (slots, days []float64) {
	i := 1
	if len(s.slotUS[1]) == 0 {
		i = 0
	}
	return s.slotUS[i], s.dayMS[i]
}

// hooks returns sim.RunOptions hooks that record the interval between
// consecutive slots and consecutive day boundaries. The first interval of
// each is skipped: it includes world construction.
func (s *simSamples) hooks(measured bool) (onSlot func(uint64), onDay func(int)) {
	s.lastSlot, s.lastDay = time.Time{}, time.Time{}
	i := 0
	if measured {
		i = 1
	}
	onSlot = func(uint64) {
		now := time.Now()
		if !s.lastSlot.IsZero() {
			s.slotUS[i] = append(s.slotUS[i], float64(now.Sub(s.lastSlot).Microseconds()))
		}
		s.lastSlot = now
	}
	onDay = func(int) {
		now := time.Now()
		if !s.lastDay.IsZero() {
			s.dayMS[i] = append(s.dayMS[i], float64(now.Sub(s.lastDay))/float64(time.Millisecond))
		}
		s.lastDay = now
	}
	return onSlot, onDay
}

// studyOut is what one study pass produced.
type studyOut struct {
	arts       []report.Artifact // the rendered figure and table set
	manifest   []byte
	blocks     int
	violations int
	corpus     int // corpus bytes
}

// analysed is a simulated and analysed window, ready to be written.
type analysed struct {
	ds         *dataset.Dataset
	labels     map[types.Address]string
	arts       []report.Artifact
	violations int
}

// studyPass runs the pbslab -dump-dataset pipeline once into dir: sim,
// in-memory analysis and validation, render, chunked corpus encode, write
// under a manifest, and VerifyDir. measured says whether the pass belongs
// to the measured phase (for the sim's slot and day samples).
func (b *bench) studyPass(ctx context.Context, sc sim.Scenario, dir string, measured bool) (*studyOut, error) {
	an, err := b.simulate(ctx, sc, measured)
	if err != nil {
		return nil, err
	}
	return b.writeStudy(dir, an)
}

// simulate is the first half of a study pass: sim, in-memory analysis and
// validation, and render.
func (b *bench) simulate(ctx context.Context, sc sim.Scenario, measured bool) (*analysed, error) {
	r := b.rec
	opts := sim.RunOptions{}
	if r.on {
		opts.OnSlot, opts.OnDay = b.simLat.hooks(measured)
	}
	var res *sim.Result
	if err := r.do("sim", func() (err error) {
		res, err = sim.RunOpts(ctx, sc, opts)
		return err
	}); err != nil {
		return nil, err
	}
	an := &analysed{ds: res.Dataset, labels: res.World.BuilderLabels()}
	// A pass holds its largest retained sets here (the finished dataset)
	// and in writeStudy (the encoded corpus beside it). Collecting at both
	// points lets the peak_heap_mb sampler read those sets whatever the
	// collector's own timing, which otherwise moved the peak by up to 30%
	// from run to run.
	runtime.GC()
	var a *core.Analysis
	if err := r.do("core.build", func() (err error) {
		a, err = core.NewWithContext(ctx, an.ds, core.WithBuilderLabels(an.labels))
		return err
	}); err != nil {
		return nil, err
	}
	_ = r.do("core.validate", func() error { an.violations = len(core.Validate(an.ds).Violations); return nil })
	err := r.do("report.render", func() error {
		an.arts = report.RenderAllContext(ctx, a, a.Workers())
		return artifactErr(an.arts)
	})
	return an, err
}

// writeStudy is the second half of a study pass: chunked corpus encode,
// write with the rendered artifacts under a manifest, and VerifyDir.
func (b *bench) writeStudy(dir string, an *analysed) (*studyOut, error) {
	r := b.rec
	var files []dsio.File
	if err := r.do("dsio.encode", func() (err error) {
		files, err = dsio.EncodeChunked(an.ds, an.labels)
		return err
	}); err != nil {
		return nil, err
	}
	runtime.GC() // see simulate
	out := &studyOut{arts: an.arts, blocks: len(an.ds.Blocks), violations: an.violations}
	all := append([]report.Artifact(nil), an.arts...)
	for _, f := range files {
		all = append(all, report.Artifact{Name: f.Name, Data: f.Data})
		out.corpus += len(f.Data)
	}
	if err := r.do("report.write", func() error { return report.WriteArtifacts(dir, all) }); err != nil {
		return nil, err
	}
	var problems []report.Problem
	if err := r.do("report.verify", func() (err error) {
		problems, err = report.VerifyDir(dir)
		return err
	}); err != nil {
		return nil, err
	}
	err := r.do("bench.check", func() error {
		b.check(len(problems) == 0, "VerifyDir %s: %d problem(s): %v", dir, len(problems), problems)
		b.check(len(an.arts) == artifactCount, "rendered %d artifacts, want %d", len(an.arts), artifactCount)
		m, err := report.ReadManifest(dir)
		if err != nil {
			return err
		}
		b.check(len(m.Artifacts) == len(all), "manifest lists %d files, wrote %d", len(m.Artifacts), len(all))
		out.manifest, err = os.ReadFile(filepath.Join(dir, report.ManifestName))
		return err
	})
	return out, err
}

func artifactErr(arts []report.Artifact) error {
	for _, a := range arts {
		if a.Err != nil {
			return fmt.Errorf("render %s: %w", a.Name, a.Err)
		}
		if len(a.Data) == 0 {
			return fmt.Errorf("render %s: empty artifact", a.Name)
		}
	}
	return nil
}

// passes runs measured passes of fn until the run's seconds have elapsed
// and at least two passes (so outputs can be compared across passes) are
// done. Each pass starts from a collected heap; it returns each pass's
// resource use and the peak live heap.
func (b *bench) passes(fn func(p int) error) (use []delta, peakMB float64, err error) {
	runtime.GC() // the sampler's first reading must not see set-up's heap
	peak := startHeapPeak()
	start := time.Now()
	for p := 0; p < 2 || time.Since(start) < b.seconds; p++ {
		runtime.GC()
		b.rec.setPass(p)
		u := readUsage()
		id := b.rec.begin("pass")
		ferr := fn(p)
		b.rec.end(id)
		d := since(u)
		b.op(ferr != nil)
		if ferr != nil {
			err = ferr
			break
		}
		use = append(use, d)
	}
	return use, peak.finish(), err
}

// setupRound runs fn setupRounds times, as set-up round k, recording each
// round's resource use for setup_s.
func (b *bench) setupRound(fn func(k int) error) error {
	for k := 0; k < setupRounds; k++ {
		b.rec.setPass(-(k + 1))
		u := readUsage()
		id := b.rec.begin("setup")
		err := fn(k)
		b.rec.end(id)
		b.op(err != nil)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, since(u))
	}
	return nil
}

// finishBatch turns per-pass figures into the end-to-end metrics: the
// operation is one pass, the work unit one block.
func (b *bench) finishBatch(name string, blocks int, use []delta, peakMB float64) {
	var rates, perCPU, alloc, passMS []float64
	for _, d := range use {
		rates = append(rates, float64(blocks)/d.Wall)
		perCPU = append(perCPU, float64(blocks)/d.ProcCPU)
		alloc = append(alloc, d.AllocMB)
		passMS = append(passMS, d.Wall*1000)
	}
	b.finishE2E(median(rates), median(perCPU), median(alloc), peakMB)
	b.named["p50_ms"] = median(passMS)
	b.named["p99_ms"] = percentile(passMS, 0.99).Value
	b.named[name] = median(rates)
	b.extra["passes"] = use
}

// studyFull is the study-full workload: the whole pbslab -dump-dataset
// pipeline over the full window, pass after pass. Set-up is three warm-up
// passes over the first four weeks, which also load every lazily
// initialised package before timing.
func studyFull(ctx context.Context, b *bench) error {
	sc, err := scenario(b.seed, 0, studyBlocksPerDay)
	if err != nil {
		return err
	}
	warm, err := scenario(warmupSeed, warmupDays, studyBlocksPerDay)
	if err != nil {
		return err
	}
	var warmManifest []byte
	if err := b.setupRound(func(k int) error {
		dir := filepath.Join(b.dir, "warmup")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		out, err := b.studyPass(ctx, warm, dir, false)
		if err != nil {
			return err
		}
		if k == 0 {
			warmManifest = out.manifest
		}
		b.check(bytes.Equal(out.manifest, warmManifest), "warm-up %d: manifest differs from warm-up 0", k)
		return nil
	}); err != nil {
		return err
	}

	var first *studyOut
	dir := filepath.Join(b.dir, "study")
	use, peak, err := b.passes(func(p int) error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		out, err := b.studyPass(ctx, sc, dir, true)
		if err != nil {
			return err
		}
		if first == nil {
			first = out
		}
		b.check(bytes.Equal(out.manifest, first.manifest), "pass %d: manifest.json differs from pass 0", p)
		b.layer["core.violations"] = float64(out.violations)
		b.layer["dsio.bytes"] = float64(out.corpus)
		b.layer["report.bytes"] = float64(artifactBytes(out.arts))
		return nil
	})
	if err != nil {
		return err
	}
	b.recordWindow(sc, first.blocks)
	b.finishBatch("study_blocks_per_s", first.blocks, use, peak)
	return nil
}

func artifactBytes(arts []report.Artifact) int {
	n := 0
	for _, a := range arts {
		n += len(a.Data)
	}
	return n
}

// countingSource is the DaySource the streamed consumers read through: it
// counts the days decoded and puts each OpenDay call in its own span, so
// the streamed layers' self time excludes decoding.
type countingSource struct {
	*dsio.Reader
	rec  *recorder
	days int
}

func (c *countingSource) OpenDay(day int) (blocks []*dataset.Block, err error) {
	c.days++
	_ = c.rec.do("dsio.decode", func() error {
		blocks, err = c.Reader.OpenDay(day)
		return err
	})
	return blocks, err
}

// ingestPass loads a written corpus the way pbslabd does — VerifyDir,
// dsio.Open, ValidateStream, NewStreaming — and renders every artifact
// from the streamed analysis.
func (b *bench) ingestPass(ctx context.Context, dir string) ([]report.Artifact, *countingSource, int, error) {
	r := b.rec
	var problems []report.Problem
	if err := r.do("report.verify", func() (err error) {
		problems, err = report.VerifyDir(dir)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	b.check(len(problems) == 0, "VerifyDir %s: %d problem(s): %v", dir, len(problems), problems)
	var rd *dsio.Reader
	if err := r.do("dsio.open", func() (err error) {
		rd, err = dsio.Open(dir)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	src := &countingSource{Reader: rd, rec: r}
	var rep core.ValidationReport
	if err := r.do("core.validate_stream", func() (err error) {
		rep, err = core.ValidateStream(src)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	var a *core.Analysis
	if err := r.do("core.stream_build", func() (err error) {
		a, err = core.NewStreaming(ctx, src)
		return err
	}); err != nil {
		return nil, nil, 0, err
	}
	var arts []report.Artifact
	err := r.do("report.render", func() error {
		arts = report.RenderAllContext(ctx, a, a.Workers())
		return artifactErr(arts)
	})
	return arts, src, len(rep.Violations), err
}

// corpusIngest is the corpus-ingest workload. Set-up simulates and
// analyses the full window once, then writes the corpus and the reference
// artifacts in each set-up round, so setup_s is the cost of the write; each
// measured pass then ingests that corpus as pbslabd would and renders from
// the streamed analysis.
func corpusIngest(ctx context.Context, b *bench) error {
	sc, err := scenario(b.seed, 0, studyBlocksPerDay)
	if err != nil {
		return err
	}
	b.rec.setPass(-1)
	u := readUsage()
	id := b.rec.begin("setup")
	an, err := b.simulate(ctx, sc, false)
	b.rec.end(id)
	b.op(err != nil)
	if err != nil {
		return err
	}
	b.extra["setup_simulate"] = since(u)

	var ref *studyOut
	corpus := filepath.Join(b.dir, "corpus-0")
	if err := b.setupRound(func(k int) error {
		dir := filepath.Join(b.dir, fmt.Sprintf("corpus-%d", k))
		out, err := b.writeStudy(dir, an)
		if err != nil {
			return err
		}
		if k == 0 {
			ref = out
			return nil
		}
		b.check(bytes.Equal(out.manifest, ref.manifest), "set-up %d: manifest differs from set-up 0", k)
		return os.RemoveAll(dir)
	}); err != nil {
		return err
	}
	an = nil // the simulated dataset must not stay live through the passes
	b.layer["dsio.bytes"] = float64(ref.corpus)
	b.layer["report.bytes"] = float64(artifactBytes(ref.arts))
	b.extra["validate_violations"] = ref.violations

	use, peak, err := b.passes(func(p int) error {
		arts, src, violations, err := b.ingestPass(ctx, corpus)
		if err != nil {
			return err
		}
		return b.rec.do("bench.check", func() error {
			b.check(len(arts) == len(ref.arts), "pass %d: streamed render gave %d artifacts, want %d", p, len(arts), len(ref.arts))
			for i := 0; i < len(arts) && i < len(ref.arts); i++ {
				b.check(arts[i].Name == ref.arts[i].Name && bytes.Equal(arts[i].Data, ref.arts[i].Data),
					"pass %d: streamed %s differs from the in-memory study's", p, arts[i].Name)
			}
			b.layer["core.violations"] = float64(violations)
			b.layer["dsio.days_decoded"] = float64(src.days)
			return nil
		})
	})
	if err != nil {
		return err
	}
	b.recordWindow(sc, ref.blocks)
	b.finishBatch("ingest_blocks_per_s", ref.blocks, use, peak)
	return nil
}
