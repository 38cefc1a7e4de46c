// Command e2ebench is pbslab's end-to-end benchmark. It times the whole
// pipeline — scenario, simulator, corpus, classification and index,
// render and manifest, and the pbslabd serving plane — by wrapping calls to
// each layer's public functions, checks every output it produces, and
// prints one JSON result line.
//
// Usage:
//
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh --workload all
//
// NAME is study-full, corpus-ingest, serve-read or serve-reload (see
// README.md for what each measures and why). --trace 1 records spans
// around every layer call and reports per-layer metrics instead of the
// end-to-end ones. A failed output check prints correct=false and exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRounds is how many times each workload repeats its set-up; setup_s
// is their median.
const setupRounds = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports on an untraced run; each
// is defined for all four workloads (README.md gives the per-workload
// meaning) and is never zero on a healthy run. Times are CPU times: on a
// shared 2-vCPU host, CPU steal by neighbours moves wall-clock figures by
// up to 2x from run to run, while CPU per unit of work stays within a few
// percent. The wall-clock throughputs and latency percentiles are printed
// and kept in the result file but are not in this set (README.md has the
// figures).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_cpu_s", "1/cpu-s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"sim.run_s", "s"}, {"sim.slot_us.p50", "us"}, {"sim.slot_us.p99", "us"},
	{"sim.day_ms.p50", "ms"}, {"sim.day_ms.p90", "ms"}, {"sim.busy_cores", "cores"},
	{"sim.alloc_mb", "MB"}, {"sim.gc_frac", "ratio"},

	{"core.build_s", "s"}, {"core.validate_s", "s"}, {"core.validate_stream_s", "s"},
	{"core.stream_build_s", "s"}, {"core.violations", "count"}, {"core.busy_cores", "cores"},
	{"core.alloc_mb", "MB"}, {"core.gc_frac", "ratio"},

	{"dsio.encode_s", "s"}, {"dsio.bytes", "bytes"}, {"dsio.open_s", "s"},
	{"dsio.decode_s", "s"}, {"dsio.days_decoded", "count"}, {"dsio.busy_cores", "cores"},
	{"dsio.alloc_mb", "MB"}, {"dsio.gc_frac", "ratio"},

	{"report.render_s", "s"}, {"report.write_s", "s"}, {"report.verify_s", "s"},
	{"report.bytes", "bytes"}, {"report.busy_cores", "cores"}, {"report.alloc_mb", "MB"},
	{"report.gc_frac", "ratio"},

	{"serve.load_s", "s"}, {"serve.reload_s", "s"}, {"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.fills", "count"}, {"serve.cache.collapsed", "count"},
	{"serve.cache.purged", "count"}, {"serve.admission.shed", "count"},
	{"serve.alloc_kb_per_req", "KB"}, {"serve.gc_frac", "ratio"}, {"serve.busy_cores", "cores"},
	{"serve.etag_reused", "count"}, {"serve.etag_stale_304", "count"},

	{"gen.p50_ms", "ms"}, {"gen.p99_ms", "ms"}, {"gen.late_ms.p99", "ms"}, {"gen.sent", "count"}, {"gen.ok", "count"},
	{"gen.not_modified", "count"}, {"gen.shed", "count"}, {"gen.failed", "count"},

	{"trace.coverage", "ratio"}, {"trace.overhead_frac", "ratio"}, {"trace.throughput_per_s", "1/s"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"study-full":    studyFull,
	"corpus-ingest": corpusIngest,
	"serve-read":    func(ctx context.Context, b *bench) error { return serveWorkload(ctx, b, false) },
	"serve-reload":  func(ctx context.Context, b *bench) error { return serveWorkload(ctx, b, true) },
}

var workloadOrder = []string{"study-full", "corpus-ingest", "serve-read", "serve-reload"}

// bench is one run: its inputs, scratch space, recorder and results.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string
	rec     *recorder

	meta      map[string]any
	setups    []delta // one per set-up round
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	// named holds the workload-specific end-to-end figures (study_blocks_per_s,
	// max_rps, reload_s, ...) that apply to this workload only; they are
	// printed by name and kept in the result file.
	named  map[string]float64
	extra  map[string]any
	simLat simSamples
}

// check records a failed output check. Every check counts: a run with
// any failure reports correct=false and exits non-zero.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "study-full, corpus-ingest, serve-read, serve-reload, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 12, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "e2ebench"), "scratch directory for corpora and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, *work)
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload one of %s|all, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadOrder, "|"))
		return 2
	}
	runID := fmt.Sprintf("%s-s%d-t%d-%d", *workload, *seed, *trace, os.Getpid())
	b := &bench{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, dir: filepath.Join(*work, "run-"+runID),
		rec:  newRecorder(*trace == 1, runID),
		meta: hostMeta(),
		e2e:  map[string]float64{}, layer: map[string]float64{},
		named: map[string]float64{}, extra: map[string]any{},
	}
	b.meta["workload"], b.meta["seed"], b.meta["seconds"], b.meta["trace"], b.meta["run_id"] =
		*workload, *seed, *seconds, *trace, runID
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	err := fn(context.Background(), b)
	if err != nil {
		b.check(false, "%s: %v", *workload, err)
	}
	if b.traced {
		b.layerMetrics()
		if werr := b.rec.write(filepath.Join(*work, runID+"-spans.json")); werr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: write spans: %v\n", werr)
		}
	}
	_ = os.RemoveAll(b.dir)
	return b.report(os.Stdout, filepath.Join(*work, runID+"-result.json"))
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable summary and the result line, writes
// the full result file, and returns the exit code.
func (b *bench) report(w io.Writer, path string) int {
	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layer
	}
	res := result{
		Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = len(b.problems) == 0 && res.Correct
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: CHECK FAILED: %s\n", p)
	}

	meta, _ := json.Marshal(b.meta)
	fmt.Fprintf(w, "meta %s\n", meta)
	fmt.Fprintf(w, "%-24s %14s  %s\n", "metric", "value", "unit")
	for _, d := range namedMetrics {
		if v, ok := b.named[d.name]; ok {
			fmt.Fprintf(w, "%-24s %14.4f  %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "%-24s %14s  %s\n", d.name, "n/a", d.unit)
		}
	}
	if b.traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-24s %14.4f  %s\n", d.name, b.layer[d.name], d.unit)
		}
	}

	full := map[string]any{
		"meta": b.meta, "result": res, "end_to_end": b.e2e, "per_layer": b.layer,
		"named": b.named, "setup_rounds": b.setups, "problems": b.problems, "extra": b.extra,
	}
	if data, err := json.MarshalIndent(full, "", " "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: write result: %v\n", err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// namedMetrics are the user-level figures the summary prints by name on
// every workload ("n/a" where a figure does not apply). The JSON result
// line carries the workload-independent endToEnd set.
var namedMetrics = []metricDef{
	{"setup_s", "s"},
	{"setup_wall_s", "s"},
	{"throughput_per_cpu_s", "1/cpu-s"},
	{"study_blocks_per_s", "blocks/s"},
	{"ingest_blocks_per_s", "blocks/s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"max_rps", "req/s"},
	{"reload_s", "s"},
	{"fail_ratio", "ratio"},
}

// finishE2E fills the shared end-to-end metrics and the named figures from
// one workload's measurements.
// throughput is the wall-clock rate (blocks/s or max_rps), perCPU the
// work done per CPU second.
func (b *bench) finishE2E(throughput, perCPU, allocMB, peakMB float64) {
	var cpu, wall []float64
	for _, d := range b.setups {
		cpu = append(cpu, d.ProcCPU)
		wall = append(wall, d.Wall)
	}
	b.e2e["setup_s"] = median(cpu)
	b.e2e["throughput_per_cpu_s"] = perCPU
	b.e2e["alloc_mb"] = allocMB
	b.e2e["peak_heap_mb"] = peakMB
	for k, v := range b.e2e {
		b.named[k] = v
	}
	b.named["setup_wall_s"] = median(wall)
	b.named["fail_ratio"] = ratio(float64(b.failed), float64(b.attempted))
	b.layer["trace.throughput_per_s"] = throughput
}

// layerMetrics derives every per-layer metric from the recorded spans.
func (b *bench) layerMetrics() {
	put := func(prefix string, st layerStat) {
		b.layer[prefix+".busy_cores"] = st.BusyCores
		b.layer[prefix+".alloc_mb"] = st.AllocMB
		b.layer[prefix+".gc_frac"] = st.GCFrac
	}
	r := b.rec
	simSt := r.layer("sim")
	b.layer["sim.run_s"] = simSt.Total
	put("sim", simSt)
	slots, days := b.simLat.pick()
	b.layer["sim.slot_us.p50"] = percentile(slots, 0.50).Value
	b.layer["sim.slot_us.p99"] = percentile(slots, 0.99).Value
	b.layer["sim.day_ms.p50"] = percentile(days, 0.50).Value
	b.layer["sim.day_ms.p90"] = percentile(days, 0.90).Value
	b.extra["sim_slot_us_p99"] = percentile(slots, 0.99)
	b.extra["sim_day_ms_p90"] = percentile(days, 0.90)

	coreNames := []string{"core.build", "core.validate", "core.validate_stream", "core.stream_build"}
	var coreAll layerStat
	for _, n := range coreNames {
		st := r.layer(n)
		if n == "core.validate_stream" || n == "core.stream_build" {
			b.layer[n+"_s"] = st.Self // decode (child spans) excluded
		} else {
			b.layer[n+"_s"] = st.Total
		}
		coreAll = addStat(coreAll, st)
	}
	put("core", coreAll)

	var dsioAll layerStat
	for _, n := range []string{"dsio.encode", "dsio.open", "dsio.decode"} {
		st := r.layer(n)
		b.layer[n+"_s"] = st.Total
		dsioAll = addStat(dsioAll, st)
	}
	put("dsio", dsioAll)

	var repAll layerStat
	for _, n := range []string{"report.render", "report.write", "report.verify"} {
		st := r.layer(n)
		b.layer[n+"_s"] = st.Total
		repAll = addStat(repAll, st)
	}
	put("report", repAll)

	b.layer["trace.coverage"] = r.coverage()
	b.layer["trace.overhead_frac"] = r.overhead()
}

// addStat combines two layers' per-pass figures for a layer-wide row. CPU
// shares are weighted by wall time.
func addStat(a, s layerStat) layerStat {
	w := a.Total + s.Total
	return layerStat{
		Total: w, AllocMB: a.AllocMB + s.AllocMB,
		GCFrac:    ratio(a.GCFrac*a.Total+s.GCFrac*s.Total, w),
		BusyCores: ratio(a.BusyCores*a.Total+s.BusyCores*s.Total, w),
	}
}

// hostMeta records the host and toolchain every result depends on.
func hostMeta() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "os": runtime.GOOS, "arch": runtime.GOARCH,
	}
}

// runAll runs every workload as a child process in turn, prints each
// one's summary, and exits non-zero if any of them failed a check.
func runAll(seed uint64, seconds, trace int, work string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	code := 0
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range workloadOrder {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--work", work)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		var res result
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			}
			res.Correct = false
			code = 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	if !total.Correct {
		code = 1
	}
	line, _ := json.Marshal(total)
	fmt.Printf("%s\n", line)
	return code
}
