package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"m2m"
	"m2m/internal/serve"
)

// Serve-mix shape. The live set is a stable population of GDI sessions
// over planKeys cached plans; churn sessions are created (each with a
// crash two rounds in, so its steps replan), stepped, and destroyed once
// past their recovery.
const (
	liveSessions   = 64
	planKeys       = 3
	churnMinRounds = 8
	stepP99LimitMS = 25.0
)

// serveRates are the fixed open-loop arrival rates (requests/s), run in
// ascending order, each for its share of the measured time; latency
// end-to-end metrics come from the highest.
var (
	serveRates  = []float64{75, 150, 300}
	serveShares = []float64{0.2, 0.2, 0.6}
)

type reqKind int

const (
	kStep reqKind = iota
	kCreate
	kDestroy
	kSweep
)

func (k reqKind) String() string {
	return [...]string{"step", "create", "destroy", "sweep"}[k]
}

// planned is one scheduled request, drawn from the workload seed.
type planned struct {
	kind   reqKind
	due    time.Duration // offset from the phase start
	pick   uint64        // target choice, resolved at send time
	rounds int
	miss   bool  // create: a workload no plan-cache entry holds
	key    int64 // create/sweep: plan key
	seed   int64 // create/sweep: session or sweep seed
}

// outcome is one completed request.
type outcome struct {
	kind            reqKind
	due, sent, done time.Time
	early           bool // the generator claimed it before it was due
	ok              bool
	cached          bool // create: plan came from the cache
	replan          bool // step: a recovery replan ran in it
	rounds          int
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// liveSession is the client's view of one server session.
type liveSession struct {
	id       string
	req      *serve.CreateSessionRequest
	churn    bool
	inflight int
	rounds   int
	hashes   map[int]string
	steps    []stepSpan
}

// stepSpan is one served step request: its rounds and service time.
type stepSpan struct {
	from, to int
	service  time.Duration
}

// sweepCheck is one served sweep, kept for local replay.
type sweepCheck struct {
	req  *serve.SweepRequest
	resp *serve.SweepResponse
}

// loadGen drives one in-process server over loopback.
type loadGen struct {
	base   string
	client *http.Client
	seed   int64
	safe   map[int64][]int // plan key → crash nodes off the workload

	mu       sync.Mutex
	sessions map[string]*liveSession
	order    []string // steppable sessions
	churn    []string // churn sessions, oldest first
	payloads [][]byte // a sample of request bodies for decode timing
	sweeps   []sweepCheck
	energyJ  float64
	rounds   int
	fresh    int
	served   int
	errs     []string
}

// server is one booted serve.Server on a loopback listener.
type server struct {
	srv *serve.Server
	hs  *http.Server
	ln  net.Listener
	wg  sync.WaitGroup
}

func bootServer() (*server, error) {
	srv, err := serve.NewServer(serve.Config{IdleTimeout: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

// stop shuts the listener and server down and waits for the serve loop.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	s.wg.Wait()
	s.srv.Close()
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
		},
	}
}

// runServeMix is the serving workload: an in-process serve.Server fed an
// open-loop arrival schedule over at most nproc connections, mostly step
// requests on a stable live set plus creates (most hitting planKeys plan
// keys, a few missing), small sweeps and destroys. Latency is timed from
// each request's due time.
func runServeMix(cfg config, r *report) error {
	conns := runtime.NumCPU()
	live := liveSessions
	if cfg.small {
		live = 8
	}
	tr := r.tr

	safe, err := safeCrashNodes(cfg.seed)
	if err != nil {
		return err
	}

	// Set-up: server boot and live-set creation, repeated; the last server
	// carries the load.
	var setup samples
	var srv *server
	var g *loadGen
	for rep := 0; rep < 5; rep++ {
		if srv != nil {
			srv.stop()
			g.client.CloseIdleConnections()
		}
		runtime.GC()
		t0 := time.Now()
		sp := tr.begin("setup", -1)
		srv, err = bootServer()
		if err != nil {
			return err
		}
		g = &loadGen{
			base:     "http://" + srv.ln.Addr().String(),
			client:   newClient(conns),
			seed:     cfg.seed,
			safe:     safe,
			sessions: map[string]*liveSession{},
		}
		for i := 0; i < live; i++ {
			req := g.createRequest(int64(i%planKeys), int64(i), false)
			if _, err := g.create(req, false); err != nil {
				srv.stop()
				return fmt.Errorf("creating live session %d: %w", i, err)
			}
		}
		tr.end(sp)
		setup.addDur(time.Since(t0))
	}
	defer srv.stop()
	defer g.client.CloseIdleConnections()
	r.e2e("setup_s", setup.median(), "s", setup.len())

	// Load: each rate for one phase (twice in a traced run, the second
	// half traced), in ascending order.
	type phaseResult struct {
		rate   float64
		traced bool
		outs   []outcome
		rounds int
		end    time.Time
		start  time.Time
	}
	var results []phaseResult
	for pi, rate := range serveRates {
		variants := []bool{false}
		dur := time.Duration(cfg.seconds * serveShares[pi] * float64(time.Second))
		if cfg.trace {
			variants, dur = []bool{false, true}, dur/2
		}
		for vi, traced := range variants {
			sched := g.schedule(rate, dur, int64(pi*2+vi))
			var t *tracer
			if traced {
				t = tr
			}
			g.mu.Lock()
			before := g.rounds
			g.mu.Unlock()
			runtime.GC()
			start := time.Now()
			outs := g.runPhase(sched, start, conns, t)
			g.mu.Lock()
			served := g.rounds - before
			g.mu.Unlock()
			results = append(results, phaseResult{rate, traced, outs, served, start.Add(dur), start})
		}
	}

	// Server-side counters.
	var st serve.StatsResponse
	if err := g.getJSON("/v1/stats", &st); err != nil {
		return err
	}

	// Untimed output checks: every served step and sweep replayed locally.
	localBySpan, err := g.replay(r, tr)
	if err != nil {
		return err
	}

	var (
		steps, creates, replans samples
		hitT, missT, late       samples
		overhead                samples
		topSteps                samples
		topRounds               int
		topDur                  time.Duration
		maxRate                 float64
		untracedTop, tracedTop  samples
		attempted, failed       int
	)
	top := serveRates[len(serveRates)-1]
	for _, ph := range results {
		var phSteps samples
		lastDone := ph.start
		for _, o := range ph.outs {
			attempted++
			if o.done.After(lastDone) {
				lastDone = o.done
			}
			if !o.ok {
				failed++
				continue
			}
			if o.early {
				late.addDur(o.sent.Sub(o.due))
			}
			service := o.done.Sub(o.sent)
			switch o.kind {
			case kStep:
				phSteps.addDur(o.latency())
				if o.replan && !ph.traced {
					replans.addDur(service)
				}
			case kCreate:
				if !ph.traced {
					creates.addDur(service)
				}
				if o.cached {
					hitT.addDur(service)
				} else {
					missT.addDur(service)
				}
			}
		}
		if ph.rate == top {
			if ph.traced {
				tracedTop = phSteps
			} else {
				untracedTop = phSteps
				topSteps = phSteps
				topRounds = ph.rounds
				topDur = ph.end.Sub(ph.start)
			}
		}
		r.note("phase %.0f req/s traced=%v: %d steps, p50 %.2fms p99 %.2fms, backlog %v", ph.rate, ph.traced,
			phSteps.len(), phSteps.median()*1e3, phSteps.p99()*1e3, lastDone.Sub(ph.end).Round(time.Millisecond))
		if !ph.traced {
			steps = append(steps, phSteps...)
			backlog := lastDone.Sub(ph.end)
			if phSteps.p99()*1e3 <= stepP99LimitMS && backlog < ph.end.Sub(ph.start)/10 && ph.rate > maxRate {
				maxRate = ph.rate
			}
		}
	}
	for _, ov := range localBySpan {
		overhead.add(ov)
	}
	r.attempted += attempted
	r.failed += failed
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range g.errs {
		r.check(false, "%s", e)
	}
	r.check(st.Panics == 0, "server recovered %d panics", st.Panics)

	r.e2e("plan_s", creates.median(), "s", creates.len())
	r.e2e("replan_s", replans.median(), "s", replans.len())
	r.e2e("rounds_per_s", float64(topRounds)/topDur.Seconds(), "rounds/s", 0)
	r.e2e("step_ms", topSteps.median()*1e3, "ms", topSteps.len())
	r.alias("step_p90_ms", topSteps.quantile(0.90)*1e3, "ms", topSteps.len())
	r.alias("step_p99_ms", topSteps.p99()*1e3, "ms", topSteps.len())
	r.e2e("sim_mJ_per_round", g.energyJ/float64(g.rounds)*1e3, "mJ", 0)
	r.e2e("fresh_frac", float64(g.fresh)/float64(g.served), "ratio", 0)
	r.alias("req_p50_ms", topSteps.median()*1e3, "ms", topSteps.len())
	r.alias("req_p99_ms", topSteps.p99()*1e3, "ms", topSteps.len())
	r.alias("create_p50_ms", creates.median()*1e3, "ms", creates.len())
	r.alias("max_rate_rps", maxRate, "req/s", len(serveRates))
	r.alias("fresh_frac", float64(g.fresh)/float64(g.served), "ratio", g.served)
	r.alias("fail_frac", float64(failed)/float64(attempted), "ratio", attempted)
	r.note("open loop: rates %v req/s for shares %v of the run, %d connections, all steps %d", serveRates, serveShares, conns, steps.len())

	if cfg.trace {
		var dec samples
		for _, p := range g.payloads {
			t0 := time.Now()
			var err error
			if bytes.Contains(p, []byte(`"topology"`)) {
				_, err = serve.DecodeCreateSession(p)
			} else {
				_, err = serve.DecodeStep(p)
			}
			dec.addDur(time.Since(t0))
			r.check(err == nil, "decoding a sent payload: %v", err)
		}
		durs := tr.durations()
		local := durs["serve.step_local"]
		r.layer("serve.decode_us", dec.median()*1e6, "us", dec.len())
		r.layer("serve.step_local_ms", local.median()*1e3, "ms", local.len())
		r.layer("serve.overhead_ms", overhead.median()*1e3, "ms", overhead.len())
		r.layer("serve.create_hit_ms", hitT.median()*1e3, "ms", hitT.len())
		r.layer("serve.create_miss_ms", missT.median()*1e3, "ms", missT.len())
		r.layer("serve.plancache_hit_frac", float64(st.PlanCacheHits)/float64(st.PlanCacheHits+st.PlanCacheMisses), "ratio", 0)
		r.layer("serve.shed", float64(st.Shed), "count", 0)
		r.layer("serve.timeouts", float64(st.Timeouts), "count", 0)
		r.layer("serve.panics", float64(st.Panics), "count", 0)
		r.layer("load.late_p99_ms", late.p99()*1e3, "ms", late.len())
		r.layer("load.max_rate_rps", maxRate, "req/s", 0)
		r.layer("trace.overhead_frac", tracedTop.median()/untracedTop.median()-1, "ratio", 0)
	} else {
		r.alias("load_late_p99_ms", late.p99()*1e3, "ms", late.len())
	}
	return nil
}

// safeCrashNodes lists, per plan key, the GDI nodes outside the workload
// whose loss leaves the network connected: churn sessions crash one.
func safeCrashNodes(seed int64) (map[int64][]int, error) {
	out := map[int64][]int{}
	net := m2m.GreatDuckIsland()
	for k := int64(0); k < planKeys; k++ {
		specs, err := net.GenerateWorkload(workloadConfig(seed, k))
		if err != nil {
			return nil, err
		}
		used := map[m2m.NodeID]bool{}
		for _, sp := range specs {
			used[sp.Dest] = true
			for _, s := range sp.Func.Sources() {
				used[s] = true
			}
		}
		for v := 1; v < net.Len(); v++ {
			if !used[m2m.NodeID(v)] && connectedWithout(net, m2m.NodeID(v)) {
				out[k] = append(out[k], v)
			}
		}
		if len(out[k]) == 0 {
			return nil, fmt.Errorf("plan key %d: no crash candidate", k)
		}
	}
	return out, nil
}

func connectedWithout(net *m2m.Network, gone m2m.NodeID) bool {
	n := net.Len()
	seen := make([]bool, n)
	seen[gone] = true
	start := m2m.NodeID(0)
	if gone == 0 {
		start = 1
	}
	stack := []m2m.NodeID{start}
	seen[start] = true
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range net.Graph.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				reached++
				stack = append(stack, v)
			}
		}
	}
	return reached == n-1
}

// workloadConfig is plan key k's generated GDI workload.
func workloadConfig(seed, k int64) m2m.WorkloadConfig {
	return m2m.WorkloadConfig{DestFraction: 0.2, SourcesPerDest: 8, Dispersion: 0.5, Seed: seed*1000 + k}
}

// createRequest builds a create payload: plan key k (or, for a miss, a
// workload no other request uses), lossy links, and for churn sessions a
// crash of a relay two rounds in.
func (g *loadGen) createRequest(k, sessSeed int64, churn bool) *serve.CreateSessionRequest {
	w := workloadConfig(g.seed, k)
	req := &serve.CreateSessionRequest{
		Topology: serve.TopologySpec{Kind: "gdi"},
		Workload: serve.WorkloadSpec{Generate: &serve.GenerateSpec{
			DestFraction: w.DestFraction, SourcesPerDest: w.SourcesPerDest, Dispersion: w.Dispersion, Seed: w.Seed,
		}},
		Readings: &serve.ReadingsSpec{Kind: "walk", Seed: g.seed*1_000_003 + sessSeed},
		Faults:   &serve.FaultsSpec{Seed: g.seed*1_000_003 + sessSeed, Loss: 0.05},
	}
	if cands := g.safe[k]; churn && len(cands) > 0 {
		node := cands[int(uint64(sessSeed)%uint64(len(cands)))]
		req.Faults.CrashNode = &node
		req.Faults.CrashRound = 2
	}
	return req
}

// schedule draws one phase's Poisson arrivals and request mix.
func (g *loadGen) schedule(rate float64, dur time.Duration, phase int64) []planned {
	rng := rand.New(rand.NewSource(g.seed*7919 + phase))
	var out []planned
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		p := planned{due: time.Duration(t * float64(time.Second)), pick: rng.Uint64(), rounds: 1 + rng.Intn(4)}
		switch x := rng.Float64(); {
		case x < 0.06:
			p.kind = kCreate
			p.miss = rng.Float64() < 0.1
			p.key = int64(rng.Intn(planKeys))
			p.seed = phase*1_000_000 + int64(i) + 1_000
			if p.miss {
				p.key = planKeys + phase*1_000_000 + int64(i)
			}
		case x < 0.12:
			p.kind = kDestroy
		case x < 0.13:
			p.kind = kSweep
			p.key = int64(rng.Intn(planKeys))
			p.seed = int64(rng.Intn(1000))
		default:
			p.kind = kStep
		}
		out = append(out, p)
	}
}

// runPhase sends the schedule from conns workers, each claiming the next
// request in due order and sending it at its due time (or at once if it
// is already late), and waits for every request to finish.
func (g *loadGen) runPhase(sched []planned, start time.Time, conns int, tr *tracer) []outcome {
	outs := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				early := time.Now().Before(due)
				if early {
					time.Sleep(time.Until(due))
				}
				o := g.do(sched[i])
				o.due, o.early = due, early
				if tr != nil {
					sp := tr.add("load.request", -1, due, o.done.Sub(due))
					tr.add("load.wait", sp, due, o.sent.Sub(due))
					tr.add("serve."+o.kind.String(), sp, o.sent, o.done.Sub(o.sent))
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// do resolves a planned request against the live state and sends it.
func (g *loadGen) do(p planned) outcome {
	switch p.kind {
	case kCreate:
		if !p.miss {
			req := g.createRequest(p.key, p.seed, true)
			o, _ := g.create(req, true)
			return o
		}
		req := g.createRequest(p.key, p.seed, false)
		o, _ := g.create(req, false)
		return o
	case kDestroy:
		if id := g.pickDoomed(); id != "" {
			return g.destroy(id)
		}
	case kSweep:
		return g.sweep(p)
	}
	return g.step(p)
}

func (g *loadGen) fail(format string, args ...any) {
	g.mu.Lock()
	if len(g.errs) < 20 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// post sends a JSON body and decodes a JSON reply into out (if non-nil).
func (g *loadGen) post(path string, body []byte, want int, out any) (time.Time, time.Time, error) {
	sent := time.Now()
	resp, err := g.client.Post(g.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return sent, time.Now(), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	done := time.Now()
	if err != nil {
		return sent, done, err
	}
	if resp.StatusCode != want {
		return sent, done, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return sent, done, fmt.Errorf("POST %s: %w", path, err)
		}
	}
	return sent, done, nil
}

func (g *loadGen) getJSON(path string, out any) error {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (g *loadGen) keepPayload(body []byte) {
	g.mu.Lock()
	if len(g.payloads) < 2000 {
		g.payloads = append(g.payloads, body)
	}
	g.mu.Unlock()
}

func (g *loadGen) create(req *serve.CreateSessionRequest, churn bool) (outcome, error) {
	o := outcome{kind: kCreate}
	body, err := json.Marshal(req)
	if err != nil {
		return o, err
	}
	g.keepPayload(body)
	var resp serve.CreateSessionResponse
	o.sent, o.done, err = g.post("/v1/sessions", body, http.StatusCreated, &resp)
	if err != nil {
		g.fail("create: %v", err)
		return o, err
	}
	o.ok, o.cached = true, resp.PlanCached
	g.mu.Lock()
	g.sessions[resp.ID] = &liveSession{id: resp.ID, req: req, churn: churn, hashes: map[int]string{}}
	g.order = append(g.order, resp.ID)
	if churn {
		g.churn = append(g.churn, resp.ID)
	}
	g.mu.Unlock()
	return o, nil
}

// pickDoomed takes the oldest churn session past its recovery with no
// request in flight out of rotation ("" if none qualifies).
func (g *loadGen) pickDoomed() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, id := range g.churn {
		s := g.sessions[id]
		if s.rounds < churnMinRounds || s.inflight > 0 {
			continue
		}
		g.churn = append(g.churn[:i:i], g.churn[i+1:]...)
		for j, x := range g.order {
			if x == id {
				g.order = append(g.order[:j:j], g.order[j+1:]...)
				break
			}
		}
		return id
	}
	return ""
}

func (g *loadGen) destroy(id string) outcome {
	o := outcome{kind: kDestroy}
	req, err := http.NewRequest(http.MethodDelete, g.base+"/v1/sessions/"+id, nil)
	if err != nil {
		g.fail("destroy: %v", err)
		return o
	}
	o.sent = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		o.done = time.Now()
		g.fail("destroy: %v", err)
		return o
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if resp.StatusCode != http.StatusNoContent {
		g.fail("destroy %s: status %d", id, resp.StatusCode)
		return o
	}
	o.ok = true
	return o
}

func (g *loadGen) step(p planned) outcome {
	o := outcome{kind: kStep}
	g.mu.Lock()
	s := g.sessions[g.order[p.pick%uint64(len(g.order))]]
	s.inflight++
	g.mu.Unlock()
	body, _ := json.Marshal(serve.StepRequest{Rounds: p.rounds})
	g.keepPayload(body)
	var resp serve.StepResponse
	var err error
	o.sent, o.done, err = g.post("/v1/sessions/"+s.id+"/step", body, http.StatusOK, &resp)
	g.mu.Lock()
	defer g.mu.Unlock()
	s.inflight--
	if err != nil {
		g.errs = append(g.errs, fmt.Sprintf("step %s: %v", s.id, err))
		return o
	}
	if resp.Truncated || len(resp.Events) != p.rounds {
		g.errs = append(g.errs, fmt.Sprintf("step %s: %d of %d rounds served", s.id, len(resp.Events), p.rounds))
		return o
	}
	o.ok, o.rounds = true, len(resp.Events)
	for _, ev := range resp.Events {
		s.hashes[ev.Round] = ev.ValuesHash
		if ev.Round+1 > s.rounds {
			s.rounds = ev.Round + 1
		}
		if ev.Recoveries > 0 {
			o.replan = true
		}
		g.energyJ += ev.EnergyJ
		g.rounds++
		g.fresh += ev.Fresh
		g.served += ev.Fresh + ev.Stale + ev.Starved
	}
	s.steps = append(s.steps, stepSpan{from: resp.Events[0].Round, to: resp.Events[len(resp.Events)-1].Round, service: o.done.Sub(o.sent)})
	return o
}

func (g *loadGen) sweep(p planned) outcome {
	o := outcome{kind: kSweep}
	w := workloadConfig(g.seed, p.key)
	req := &serve.SweepRequest{
		Topology: serve.TopologySpec{Kind: "gdi"},
		Workload: serve.WorkloadSpec{Generate: &serve.GenerateSpec{
			DestFraction: w.DestFraction, SourcesPerDest: w.SourcesPerDest, Dispersion: w.Dispersion, Seed: w.Seed,
		}},
		SeedFrom: p.seed,
		SeedTo:   p.seed + 2,
		Variants: []serve.SweepVariant{{Name: "lossy", Loss: 0.05, Rounds: 3}},
	}
	body, err := json.Marshal(req)
	if err != nil {
		g.fail("sweep: %v", err)
		return o
	}
	var resp serve.SweepResponse
	o.sent, o.done, err = g.post("/v1/sweep", body, http.StatusOK, &resp)
	if err != nil {
		g.fail("sweep: %v", err)
		return o
	}
	o.ok = true
	g.mu.Lock()
	g.sweeps = append(g.sweeps, sweepCheck{req: req, resp: &resp})
	g.mu.Unlock()
	return o
}

// replay rebuilds every served session and sweep locally with
// serve.BuildSession and compares each round's value hash with the
// served one. It returns, per served step request, the service time minus
// the local time of the same rounds.
func (g *loadGen) replay(r *report, tr *tracer) ([]float64, error) {
	var overhead []float64
	for _, s := range g.sessions {
		if s.rounds == 0 {
			continue
		}
		sess, err := serve.BuildSession(s.req)
		if err != nil {
			return nil, fmt.Errorf("local replay of %s: %w", s.id, err)
		}
		local := make([]time.Duration, s.rounds)
		for round := 0; round < s.rounds; round++ {
			t0 := time.Now()
			st, err := sess.Step()
			local[round] = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("local replay of %s round %d: %w", s.id, round, err)
			}
			if h, ok := s.hashes[round]; ok {
				r.check(h == serve.HashValues(st.Values), "session %s round %d: served values differ from the local replay", s.id, round)
			}
		}
		for _, sp := range s.steps {
			var d time.Duration
			for round := sp.from; round <= sp.to; round++ {
				d += local[round]
			}
			if tr != nil {
				tr.add("serve.step_local", -1, time.Now(), d)
			}
			overhead = append(overhead, (sp.service - d).Seconds())
		}
	}
	for _, sw := range g.sweeps {
		for _, v := range sw.resp.Variants {
			for _, res := range v.Results {
				req := &serve.CreateSessionRequest{
					Topology: sw.req.Topology,
					Workload: sw.req.Workload,
					Readings: &serve.ReadingsSpec{Kind: "walk", Seed: res.Seed},
					Faults:   &serve.FaultsSpec{Seed: res.Seed, Loss: sw.req.Variants[0].Loss},
				}
				sess, err := serve.BuildSession(req)
				if err != nil {
					return nil, err
				}
				var last *m2m.ResilientStep
				for i := 0; i < sw.req.Variants[0].Rounds; i++ {
					if last, err = sess.Step(); err != nil {
						return nil, err
					}
				}
				r.check(res.ValuesHash == serve.HashValues(last.Values) && res.EnergyJ == sess.TotalEnergyJ(),
					"sweep seed %d: served result differs from the local replay", res.Seed)
			}
		}
	}
	if len(g.sweeps) == 0 && len(g.sessions) == 0 {
		return nil, errors.New("nothing was served")
	}
	return overhead, nil
}
