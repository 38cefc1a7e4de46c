package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/serve"
)

const (
	// The serve workloads read the README quickstart corpus: pbslab -days 14
	// at the default 24 blocks/day, seed 1. The corpus seed is fixed because
	// serve.Load refuses any corpus core.Validate flags, and the known
	// "delivered unknown block" violations appear at seeds 2-4 over this
	// window (README.md). The workload seed drives the request mix.
	serveDays         = 14
	serveBlocksPerDay = 24
	serveCorpusSeed   = 1

	// fixedRate is the open-loop rate the latency percentiles are taken
	// at: on a 2-core host, about a third of serve-read's max_rps and half
	// of serve-reload's. It is a chosen load, not one observed in use.
	fixedRate = 6000.0
	// latencyLimit is the window p99 a ladder rate must meet to count
	// toward max_rps. On a 2-core host one reload stalls reads for 10-30
	// ms at any rate, so a tighter limit would leave serve-reload without
	// a passing rate; 50 ms sits above that stall, and the backlog check
	// below is what binds near capacity.
	latencyLimit = 50 * time.Millisecond
	// backlogLimit is the median start lag over a step's last window above
	// which the backlog counts as grown: the generator has fallen behind
	// its schedule and is no longer catching up.
	backlogLimit = 10 * time.Millisecond
	// minSuccess is the share of a ladder step's requests that must
	// succeed for the rate to count.
	minSuccess = 0.999
	// reloadEvery is serve-reload's POST /admin/reload period.
	reloadEvery = 2 * time.Second
	// reqTimeout bounds one request end to end.
	reqTimeout = 5 * time.Second
	// mixLen is the approximate length of the seeded request sequence;
	// request i uses entry i mod the sequence length.
	mixLen = 4096
)

// route is one distinct request of the mix.
type route struct {
	path string
	inm  bool   // sends If-None-Match with etag
	json bool   // a JSON API route (else an artifact download)
	ref  []byte // reference body: the first one served (artifacts: checked against the manifest)
	etag string // ETag served with ref
}

// outcome classifies one response.
type outcome int

const (
	outOK outcome = iota
	outNotModified
	outShed
	outFailed
)

// gen is the open-loop load generator: requests are due on a fixed
// schedule whatever the server's progress, sent by nproc workers over at
// most nproc keep-alive connections, and timed from their due time (see
// step for how the generator's own timer lateness is kept out).
type gen struct {
	b           *bench
	base        string // "http://" + listener address
	client      *http.Client
	fingerprint string // manifest fingerprint every response must carry
	seq         []*route
	maxBody     int // largest reference body, in bytes
	ord         int // ordinal of the next request across steps

	// reloads counts completed reloads that swapped in a new generation. A
	// request sent after the first one reaches a snapshot newer than the
	// one its route's reference body came from.
	reloads atomic.Int64
	// pbslabd's JSON ETag is built from the manifest fingerprint and the
	// route only, while the body carries the snapshot generation that
	// every reload of the same directory bumps. etagReused counts 200
	// bodies that differ from the reference only in that field, under the
	// reference's ETag; stale304 counts 304s sent after a reload that
	// validated a reference body of an older generation.
	etagReused, stale304 atomic.Int64
}

// stepResult is one open-loop step at a fixed rate. The step is cut into
// equal windows by due time; P99Win is the median over windows of each
// window's 99th percentile, so one stall of the shared host that lands in
// a single window does not decide the step.
type stepResult struct {
	Rate        float64   `json:"rate"`
	Seconds     float64   `json:"seconds"`
	Sent        int       `json:"sent"`
	OK          int       `json:"ok"`
	NotModified int       `json:"not_modified"`
	Shed        int       `json:"shed"`
	Failed      int       `json:"failed"`
	P50         quantile  `json:"p50_ms"`
	P99         quantile  `json:"p99_ms"`
	Windows     int       `json:"windows"`
	P99Win      float64   `json:"p99_win_ms"`
	WinP99      []float64 `json:"window_p99_ms"`
	Late        quantile  `json:"late_ms_p99"`
	LagEndMS    float64   `json:"lag_end_ms"`
	BacklogEnd  int       `json:"backlog_end"`
	BusyCores   float64   `json:"busy_cores"`
	Pass        bool      `json:"pass"`
	Reloads     []float64 `json:"reload_s,omitempty"`
}

// newClient returns an HTTP client that keeps at most conns connections
// alive to the server and gives each request timeout end to end.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// response is one fully read response; body is valid until the next call
// with the same buffer.
type response struct {
	status      int
	etag        string
	fingerprint string
	body        []byte
}

// fetch sends one GET and reads the whole response into buf.
func fetch(c *http.Client, url, inm string, buf *bytes.Buffer) (response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return response{}, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return response{
		status: resp.StatusCode, etag: resp.Header.Get("ETag"),
		fingerprint: resp.Header.Get(serve.FingerprintHeader), body: buf.Bytes(),
	}, err
}

func (g *gen) close() {
	g.client.CloseIdleConnections()
}

// classify checks one response against the reference outputs. afterReload
// says whether a reload had completed before the request was sent.
func (g *gen) classify(rt *route, resp response, err error, afterReload bool) (outcome, string) {
	switch {
	case err != nil:
		return outFailed, fmt.Sprintf("%s: %v", rt.path, err)
	case resp.status == 429 || resp.status == 503:
		return outShed, ""
	case resp.status != 200 && resp.status != 304:
		return outFailed, fmt.Sprintf("%s: status %d", rt.path, resp.status)
	case resp.fingerprint != g.fingerprint:
		return outFailed, fmt.Sprintf("%s: fingerprint %q, want %q", rt.path, resp.fingerprint, g.fingerprint)
	case resp.status == 304:
		if !rt.inm || resp.etag != rt.etag {
			return outFailed, fmt.Sprintf("%s: unexpected 304 (ETag %s)", rt.path, resp.etag)
		}
		if rt.json && afterReload {
			g.stale304.Add(1)
		}
		return outNotModified, ""
	case bytes.Equal(resp.body, rt.ref) && resp.etag == rt.etag:
		return outOK, ""
	case rt.json && resp.etag == rt.etag && sameButGeneration(resp.body, rt.ref):
		g.etagReused.Add(1)
		return outOK, ""
	case rt.json:
		return outFailed, fmt.Sprintf("%s: body differs from the first one served for this fingerprint", rt.path)
	}
	return outFailed, fmt.Sprintf("%s: body does not hash to the manifest SHA-256", rt.path)
}

var generationKey = []byte(`"generation": `)

// generationSpan returns the byte range of the value of the first
// "generation" field of a pbslabd JSON body, or -1, -1 when it has none.
func generationSpan(body []byte) (int, int) {
	i := bytes.Index(body, generationKey)
	if i < 0 {
		return -1, -1
	}
	i += len(generationKey)
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	return i, j
}

// sameButGeneration reports whether two pbslabd JSON bodies differ only
// in the value of their "generation" field.
func sameButGeneration(a, b []byte) bool {
	ai, aj := generationSpan(a)
	bi, bj := generationSpan(b)
	return ai >= 0 && bi >= 0 && !bytes.Equal(a[ai:aj], b[bi:bj]) &&
		bytes.Equal(a[:ai], b[:bi]) && bytes.Equal(a[aj:], b[bj:])
}

// step offers rate requests/s for dur, calling reload at each offset in
// reloadAt, and returns the step's figures over windows equal windows. It
// returns once every request and reload has completed.
func (g *gen) step(rate float64, dur time.Duration, windows int, reloadAt []time.Duration, reload func() (float64, bool)) stepResult {
	n := int(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	t0 := time.Now().Add(time.Millisecond)
	// The per-request records are sized up front, so the generator's own
	// live heap does not grow during the step.
	lat := make([]float64, n)
	started := make([]time.Duration, n)
	late := make([]float64, n) // timer lateness; -1 where the worker did not sleep
	var next atomic.Int64
	type tally struct {
		counts [4]int
		errs   []string
	}
	tallies := make([]tally, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			// The body buffer holds the largest reference body from the
			// start: grown on demand, its size and the garbage it leaves
			// would follow the seeded order of routes.
			var buf bytes.Buffer
			buf.Grow(g.maxBody + bytes.MinRead)
			// woke is when this worker's timer last fired. A request is
			// timed from its due time or, if the generator itself woke
			// after that, from the wake-up: timer lateness is the
			// generator's (reported as Late), not pbslabd's.
			var woke time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) * interval))
				late[i] = -1
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					woke = time.Now()
					late[i] = ms(woke.Sub(due))
				}
				from := due
				if woke.After(due) {
					from = woke
				}
				s := time.Now()
				rt := g.seq[(g.ord+i)%len(g.seq)]
				afterReload := g.reloads.Load() > 0
				inm := ""
				if rt.inm {
					inm = rt.etag
				}
				resp, err := fetch(g.client, g.base+rt.path, inm, &buf)
				e := time.Now()
				started[i] = s.Sub(t0)
				o, why := g.classify(rt, resp, err, afterReload)
				t.counts[o]++
				lat[i] = ms(e.Sub(from))
				if o == outFailed || o == outShed {
					lat[i] = ms(reqTimeout) // a failed or refused request misses every limit
				}
				if why != "" && len(t.errs) < 3 {
					t.errs = append(t.errs, why)
				}
			}
		}(&tallies[w])
	}
	u := readUsage()
	var reloads []float64
	reloadFails := 0
	for _, off := range reloadAt {
		time.Sleep(time.Until(t0.Add(off)))
		s, ok := reload()
		reloads = append(reloads, s)
		g.b.op(!ok)
		if !ok {
			reloadFails++
		}
	}
	wg.Wait()
	use := since(u)
	g.ord += n

	res := stepResult{Rate: rate, Seconds: dur.Seconds(), Sent: n, Windows: windows, Reloads: reloads,
		BusyCores: ratio(use.ProcCPU, use.Wall)}
	for _, t := range tallies {
		res.OK += t.counts[outOK]
		res.NotModified += t.counts[outNotModified]
		res.Shed += t.counts[outShed]
		res.Failed += t.counts[outFailed]
		for _, e := range t.errs {
			g.b.check(false, "rate %.0f: %s", rate, e)
		}
	}
	g.b.attempted += n
	g.b.failed += res.Shed + res.Failed
	res.P50 = percentile(lat, 0.50)
	res.P99 = percentile(lat, 0.99)
	var slept []float64
	for _, v := range late {
		if v >= 0 {
			slept = append(slept, v)
		}
	}
	res.Late = percentile(slept, 0.99)
	var winP99 []float64
	var lagEnd []float64
	for w := 0; w < windows; w++ {
		lo, hi := n*w/windows, n*(w+1)/windows
		winP99 = append(winP99, percentile(lat[lo:hi], 0.99).Value)
		if w == windows-1 {
			for i := lo; i < hi; i++ {
				due := time.Duration(float64(i) * interval)
				lagEnd = append(lagEnd, ms(started[i]-due))
			}
		}
	}
	res.P99Win = median(winP99)
	res.WinP99 = winP99
	res.LagEndMS = median(lagEnd)
	for i := 0; i < n; i++ {
		if due := time.Duration(float64(i) * interval); due <= dur && started[i] > dur {
			res.BacklogEnd++
		}
	}
	res.Pass = float64(res.OK+res.NotModified) >= minSuccess*float64(n) &&
		res.P99Win <= ms(latencyLimit) && res.LagEndMS <= ms(backlogLimit) && reloadFails == 0
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mixRoutes are the routes of the request stream: the ten-route set of
// internal/serve's BenchmarkServeSustained (listings, two figure series,
// three per-day queries, two artifact downloads), each equally likely as
// there.
var mixRoutes = []string{
	"/api/v1/meta",
	"/api/v1/figures",
	"/api/v1/figure/fig04_pbs_share",
	"/api/v1/figure/fig06_hhi",
	"/api/v1/day/0",
	"/api/v1/day/1",
	"/api/v1/day/2",
	"/api/v1/artifacts",
	"/artifacts/fig04_pbs_share.csv",
	"/artifacts/fig06_hhi.csv",
}

// revalidateEvery is the share of requests, one in revalidateEvery on
// every route, that revalidate with If-None-Match and the route's ETag.
const revalidateEvery = 4

// buildMix returns the seeded request sequence over the captured routes.
// Its composition is fixed; the seed only shuffles the order, so seeds
// differ in arrival order but not in the work they ask for.
func buildMix(seed uint64, refs []*route) []*route {
	var unit []*route
	for _, rt := range refs {
		inm := *rt
		inm.inm = true
		unit = append(unit, &inm)
		for i := 1; i < revalidateEvery; i++ {
			unit = append(unit, rt)
		}
	}
	var seq []*route
	for len(seq) < mixLen {
		seq = append(seq, unit...)
	}
	r := rand.New(rand.NewSource(int64(seed)))
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// captureRoutes fetches every route of the mix once and keeps the response
// as the route's reference: its body and ETag. Every response must carry
// the same fingerprint, which it returns, and every artifact body must hash
// to its SHA-256 in dir's manifest.
func captureRoutes(c *http.Client, base, dir string) ([]*route, string, error) {
	m, err := report.ReadManifest(dir)
	if err != nil {
		return nil, "", err
	}
	sums := map[string]string{}
	for _, e := range m.Artifacts {
		sums["/artifacts/"+e.Name] = e.SHA256
	}
	var refs []*route
	var fingerprint string
	var buf bytes.Buffer
	for _, p := range mixRoutes {
		resp, err := fetch(c, base+p, "", &buf)
		if err != nil {
			return nil, "", err
		}
		if resp.status != 200 || resp.fingerprint == "" || resp.etag == "" {
			return nil, "", fmt.Errorf("GET %s: status %d, fingerprint %q, ETag %q", p, resp.status, resp.fingerprint, resp.etag)
		}
		if fingerprint == "" {
			fingerprint = resp.fingerprint
		} else if resp.fingerprint != fingerprint {
			return nil, "", fmt.Errorf("GET %s: fingerprint %q, want %q", p, resp.fingerprint, fingerprint)
		}
		rt := &route{path: p, ref: bytes.Clone(resp.body), etag: resp.etag}
		if want, ok := sums[p]; ok {
			sum := sha256.Sum256(resp.body)
			if hex.EncodeToString(sum[:]) != want {
				return nil, "", fmt.Errorf("GET %s: body does not hash to its manifest SHA-256", p)
			}
		} else if rt.json = !strings.HasPrefix(p, "/artifacts/"); !rt.json {
			return nil, "", fmt.Errorf("%s is not in the manifest", p)
		}
		refs = append(refs, rt)
	}
	return refs, fingerprint, nil
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	var buf bytes.Buffer
	resp, err := fetch(c, url, "", &buf)
	if err != nil {
		return err
	}
	if resp.status != 200 {
		return fmt.Errorf("GET %s: status %d", url, resp.status)
	}
	return json.Unmarshal(resp.body, v)
}

// serveWorkload is serve-read (reload false) and serve-reload (reload
// true): an in-process pbslabd on a loopback listener under an open-loop
// request stream, first at fixedRate for the latency percentiles, then up
// a rate ladder for max_rps.
func serveWorkload(ctx context.Context, b *bench, reload bool) error {
	sc, err := scenario(serveCorpusSeed, serveDays, serveBlocksPerDay)
	if err != nil {
		return err
	}
	var srv *serve.Server
	var dir string
	var loads []float64
	var ref []byte
	if err := b.setupRound(func(k int) error {
		d := filepath.Join(b.dir, fmt.Sprintf("corpus-%d", k))
		out, err := b.studyPass(ctx, sc, d, false)
		if err != nil {
			return err
		}
		if k == 0 {
			ref = out.manifest
			b.recordWindow(sc, out.blocks)
			b.layer["core.violations"] = float64(out.violations)
			b.layer["dsio.bytes"] = float64(out.corpus)
			b.layer["report.bytes"] = float64(artifactBytes(out.arts))
		}
		b.check(bytes.Equal(out.manifest, ref), "set-up %d: manifest differs from set-up 0", k)
		s := serve.NewServer(serve.Config{DataDir: d})
		t := time.Now()
		if err := b.rec.do("serve.load", func() error { return s.Init(ctx) }); err != nil {
			return err
		}
		loads = append(loads, time.Since(t).Seconds())
		if srv != nil {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		srv, dir = s, d
		return nil
	}); err != nil {
		return err
	}
	b.layer["serve.load_s"] = median(loads)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			b.check(false, "drain: %v", err)
		}
		if err := <-serveErr; err != nil {
			b.check(false, "serve: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()

	client := newClient(runtime.NumCPU(), reqTimeout)
	refs, fingerprint, err := captureRoutes(client, base, dir)
	if err != nil {
		return err
	}
	g := &gen{b: b, base: base, client: client, fingerprint: fingerprint, seq: buildMix(b.seed, refs)}
	for _, rt := range refs {
		// A later generation's JSON body may be a few bytes longer.
		g.maxBody = max(g.maxBody, len(rt.ref)+64)
	}
	defer g.close()
	b.meta["connections"] = runtime.NumCPU()
	b.meta["fixed_rate"] = fixedRate

	var reloadFn func() (float64, bool)
	var reloadHeaps []float64
	if reload {
		admin := newClient(1, 30*time.Second)
		defer admin.CloseIdleConnections()
		reloadFn = func() (float64, bool) {
			peak := startHeapPeak()
			defer func() {
				peak.finish()
				reloadHeaps = append(reloadHeaps, peak.cycleQuantile(0.5))
			}()
			t := time.Now()
			var status int
			var body struct {
				Swapped bool `json:"swapped"`
			}
			err := b.rec.do("serve.reload", func() error {
				req, err := http.NewRequest(http.MethodPost, base+"/admin/reload", nil)
				if err != nil {
					return err
				}
				resp, err := admin.Do(req)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				return json.NewDecoder(resp.Body).Decode(&body)
			})
			d := time.Since(t)
			ok := err == nil && status == 200 && body.Swapped
			if ok {
				g.reloads.Add(1)
			}
			b.check(ok, "POST /admin/reload: status %d, error %v", status, err)
			return d.Seconds(), ok
		}
	}

	// Step shapes. serve-read: the fixed-rate window is cut into 0.25 s
	// windows and each 1 s ladder step into four. serve-reload: every
	// window is one reload period with the reload a quarter of the way in,
	// so every window, and every ladder step, carries the same write load.
	win, stepDur, stepWins := 250*time.Millisecond, time.Second, 4
	fixedShare := 0.5
	if reload {
		win, stepDur, stepWins = reloadEvery, reloadEvery, 1
		fixedShare = 1.0 / 3
	}
	fixedWins := int(math.Max(2, math.Round(b.seconds.Seconds()*fixedShare/win.Seconds())))
	reloadsIn := func(d time.Duration) []time.Duration {
		var at []time.Duration
		for off := reloadEvery / 4; reload && off < d; off += reloadEvery {
			at = append(at, off)
		}
		return at
	}

	// Warm the connections and the response cache before timing.
	g.step(fixedRate/4, 250*time.Millisecond, 1, nil, nil)
	runtime.GC()
	cache0 := srv.CacheStats()
	peak := startHeapPeak()
	b.rec.setPass(0)
	passID := b.rec.begin("pass")
	start := time.Now()

	u := readUsage()
	id := b.rec.begin("gen.fixed")
	fixedDur := time.Duration(fixedWins) * win
	fixed := g.step(fixedRate, fixedDur, fixedWins, reloadsIn(fixedDur), reloadFn)
	b.rec.end(id)
	use := since(u)
	// The heap figure covers the fixed-rate window: the ladder's rates
	// differ from run to run, and a faster allocation rate marks more of
	// the heap live. Each GC cycle's live heap also counts what was
	// allocated while it marked, and that share grows with the CPU the
	// shared host takes away during marking, so the window's highest
	// cycle measures the host more than pbslabd. The lower quartile over
	// the window's GC cycles is the live heap pbslabd holds under this
	// load with little of that share. serve-reload replaces it below.
	peak.finish()
	peakMB := peak.cycleQuantile(0.25)
	b.extra["fixed_max_live_heap_mb"] = float64(peak.max) / (1 << 20)
	etagReused, stale304 := g.etagReused.Load(), g.stale304.Load()

	// Rate ladder for max_rps. The first probe is under the rate the fixed
	// window's CPU use extrapolates to with every core busy. A step starts
	// while at least half of it fits in the measured seconds.
	est := fixedRate * float64(runtime.NumCPU()) / math.Max(fixed.BusyCores, 0.1)
	l := &ladder{Start: math.Max(0.85*est, 1.15*fixedRate), Factor: 1.15, Res: 0.03, Floor: 100}
	l.record(fixedRate, fixed.Pass)
	steps := []stepResult{fixed}
	for time.Since(start)+stepDur/2 <= b.seconds {
		rate, ok := l.next()
		if !ok {
			break
		}
		runtime.GC()
		id := b.rec.begin("gen.step")
		st := g.step(rate, stepDur, stepWins, reloadsIn(stepDur), reloadFn)
		b.rec.end(id)
		l.record(rate, st.Pass)
		steps = append(steps, st)
	}
	b.rec.end(passID)
	cache1 := srv.CacheStats()

	var stats struct {
		Admission serve.AdmissionStats `json:"admission"`
	}
	if err := getJSON(client, base+"/api/v1/stats", &stats); err != nil {
		return err
	}

	var reloads []float64
	for _, st := range steps {
		reloads = append(reloads, st.Reloads...)
	}
	if reload {
		// A reload holds two snapshots live at once and sets the peak. The
		// single highest live heap one reload reaches is the GC cycle that
		// caught the load's transient buffers, which depends on when the
		// collector runs; the live heap of the reload's other GC cycles
		// sits on a plateau below it. The figure is the median over the
		// run's reloads of each one's median over its GC cycles.
		peakMB = median(reloadHeaps)
		b.extra["reload_heap_mb"] = reloadHeaps
	}
	b.finishE2E(l.Pass, ratio(float64(fixed.Sent), use.ProcCPU), use.AllocMB, peakMB)
	b.named["p50_ms"] = fixed.P50.Value
	b.named["p99_ms"] = fixed.P99Win
	b.named["max_rps"] = l.Pass
	if reload {
		b.named["reload_s"] = median(reloads)
	}
	b.extra["steps"] = steps
	b.extra["fixed_p99_whole_window_ms"] = fixed.P99
	b.extra["reloads_s"] = reloads

	hits := float64(cache1.Hits - cache0.Hits)
	b.layer["serve.reload_s"] = median(reloads)
	b.layer["serve.cache.hit_ratio"] = ratio(hits, hits+float64(cache1.Misses-cache0.Misses))
	b.layer["serve.cache.fills"] = float64(cache1.Fills - cache0.Fills)
	b.layer["serve.cache.collapsed"] = float64(cache1.Collapsed - cache0.Collapsed)
	b.layer["serve.cache.purged"] = float64(cache1.Purged - cache0.Purged)
	b.layer["serve.admission.shed"] = float64(stats.Admission.Shed429 + stats.Admission.Shed503)
	b.layer["serve.alloc_kb_per_req"] = ratio(use.AllocMB*1024, float64(fixed.Sent))
	b.layer["serve.gc_frac"] = ratio(use.GCCPU, use.UsedCPU)
	b.layer["serve.busy_cores"] = ratio(use.ProcCPU, use.Wall)
	b.layer["serve.etag_reused"] = float64(etagReused)
	b.layer["serve.etag_stale_304"] = float64(stale304)
	b.layer["gen.p50_ms"] = fixed.P50.Value
	b.layer["gen.p99_ms"] = fixed.P99Win
	b.layer["gen.late_ms.p99"] = fixed.Late.Value
	b.layer["gen.sent"] = float64(fixed.Sent)
	b.layer["gen.ok"] = float64(fixed.OK)
	b.layer["gen.not_modified"] = float64(fixed.NotModified)
	b.layer["gen.shed"] = float64(fixed.Shed)
	b.layer["gen.failed"] = float64(fixed.Failed)
	return nil
}
