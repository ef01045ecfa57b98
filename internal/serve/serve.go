// Package serve is the m2md session server: an HTTP/JSON front end that
// multiplexes many concurrent tenant simulations over shared compiled
// programs. One optimized plan (the expensive part — flow networks over
// every routing edge) is cached by a hash of the (topology, workload,
// router) triple and seeds any number of ResilientSessions, which share it
// read-only, so a thousand identical tenants pay for one Optimize.
//
// The server is built to degrade rather than fall over:
//
//   - Admission control bounds work per tenant and globally; requests
//     beyond the bounded queues are shed with 429 + Retry-After instead
//     of growing goroutines without limit.
//   - Every request runs under a deadline threaded through
//     context.Context into the simulation loops (RunConcurrent and the
//     per-round step loop both yield between rounds).
//   - A panic inside one tenant's simulator poisons that session only;
//     the recovery middleware keeps the process serving.
//   - Graceful shutdown flips readiness, drains in-flight rounds, and can
//     checkpoint live sessions — sessions are deterministic in (creation
//     payload, rounds stepped), so a checkpoint is just that pair and a
//     restore replays it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// Config bounds the server. The zero value of any field selects the
// documented default; Validate rejects negatives.
type Config struct {
	// MaxSessions caps live sessions; creates beyond it are shed (429).
	// Default 4096.
	MaxSessions int
	// MaxNodes caps the topology size a request may ask for. Default 5000.
	MaxNodes int
	// MaxStepRounds caps rounds per step/stream request. Default 10000.
	MaxStepRounds int
	// MaxSweepSeeds caps seeds per sweep request. Default 10000.
	MaxSweepSeeds int
	// MaxInflight caps concurrently executing requests across all
	// tenants. Default 64.
	MaxInflight int
	// PerTenantInflight caps concurrently executing requests per tenant
	// (X-Tenant header; absent means the shared "anon" tenant).
	// Default 8.
	PerTenantInflight int
	// QueueDepth bounds how many requests may wait per gate beyond the
	// executing ones; the rest are shed. Default 16.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends no
	// X-Timeout-Ms header. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines. Default 5m.
	MaxTimeout time.Duration
	// IdleTimeout evicts sessions untouched this long. Zero selects the
	// 10m default; negative disables eviction.
	IdleTimeout time.Duration
	// SweepWorkers sizes sweep worker pools. Default GOMAXPROCS.
	SweepWorkers int
	// MaxBodyBytes caps request bodies. Default 4 MiB.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.MaxSessions, 4096)
	def(&c.MaxNodes, 5000)
	def(&c.MaxStepRounds, 10000)
	def(&c.MaxSweepSeeds, 10000)
	def(&c.MaxInflight, 64)
	def(&c.PerTenantInflight, 8)
	def(&c.QueueDepth, 16)
	def(&c.SweepWorkers, runtime.GOMAXPROCS(0))
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 4 << 20
	}
	return c
}

// Validate rejects configurations the defaults cannot repair.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"MaxSessions", c.MaxSessions}, {"MaxNodes", c.MaxNodes},
		{"MaxStepRounds", c.MaxStepRounds}, {"MaxSweepSeeds", c.MaxSweepSeeds},
		{"MaxInflight", c.MaxInflight}, {"PerTenantInflight", c.PerTenantInflight},
		{"QueueDepth", c.QueueDepth}, {"SweepWorkers", c.SweepWorkers}} {
		if f.v < 0 {
			return fmt.Errorf("serve: negative %s %d", f.name, f.v)
		}
	}
	if c.DefaultTimeout < 0 || c.MaxTimeout < 0 {
		return fmt.Errorf("serve: negative timeout")
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("serve: negative MaxBodyBytes %d", c.MaxBodyBytes)
	}
	return nil
}

// Server is the session server. Construct with NewServer, serve
// s.Handler(), stop with BeginDrain (readiness off, creates refused) and
// Close (janitor stopped).
type Server struct {
	cfg   Config
	reg   *registry
	cache *planCache
	adm   *admission

	mux      *http.ServeMux
	draining atomic.Bool

	janitorStop chan struct{}
	janitorDone chan struct{}

	// Counters exported via /v1/stats.
	created  atomic.Int64
	evicted  atomic.Int64
	steps    atomic.Int64
	rounds   atomic.Int64
	sweeps   atomic.Int64
	panics   atomic.Int64
	timeouts atomic.Int64
}

// NewServer validates cfg, applies defaults, and starts the idle-session
// janitor.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         newRegistry(),
		cache:       newPlanCache(),
		adm:         newAdmission(cfg.MaxInflight, cfg.PerTenantInflight, cfg.QueueDepth),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.routes()
	go s.janitor()
	return s, nil
}

// Close stops the janitor. It does not touch live sessions; pair with
// BeginDrain and Checkpoint for a graceful shutdown.
func (s *Server) Close() {
	select {
	case <-s.janitorDone:
	default:
		close(s.janitorStop)
		<-s.janitorDone
	}
}

// BeginDrain flips the server into shutdown mode: /readyz turns 503 so
// load balancers stop routing here, and new sessions or sweeps are
// refused with 503. In-flight and subsequent step requests still
// complete — draining never truncates a round.
func (s *Server) BeginDrain() { s.draining.Store(true) }

func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.cfg.IdleTimeout < 0 {
		return
	}
	interval := s.cfg.IdleTimeout / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			if n := s.reg.evictIdle(s.cfg.IdleTimeout, now); n > 0 {
				s.evicted.Add(int64(n))
			}
		}
	}
}

// Handler returns the root handler: the route mux wrapped in panic
// recovery.
func (s *Server) Handler() http.Handler {
	return s.recoverPanics(s.mux)
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("POST /v1/sessions", s.admitted(s.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDestroy)
	mux.Handle("POST /v1/sessions/{id}/step", s.admitted(s.handleStep))
	mux.Handle("GET /v1/sessions/{id}/stream", s.admitted(s.handleStream))
	mux.Handle("POST /v1/sweep", s.admitted(s.handleSweep))
	s.mux = mux
}

// recoverPanics is the outermost middleware: a panic that escapes a
// handler (session panics are already contained and poisoned at the
// registry layer) answers 500 instead of killing the process.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admitted wraps a heavy handler in the deadline and admission
// middleware: the request context gains the effective timeout, and the
// request must win a tenant slot (or a bounded queue position) before the
// handler runs. Shed requests answer 429 with Retry-After.
func (s *Server) admitted(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout(r))
		defer cancel()
		r = r.WithContext(ctx)

		release, ok := s.adm.acquire(ctx, tenantOf(r))
		if !ok {
			if ctx.Err() != nil {
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: deadline expired in admission queue"))
				return
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("serve: overloaded, retry later"))
			return
		}
		defer release()
		h(w, r)
	})
}

// timeout resolves the request deadline: X-Timeout-Ms clamped to
// [1ms, MaxTimeout], else the default.
func (s *Server) timeout(r *http.Request) time.Duration {
	if h := r.Header.Get("X-Timeout-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			d := time.Duration(ms) * time.Millisecond
			if d > s.cfg.MaxTimeout {
				d = s.cfg.MaxTimeout
			}
			return d
		}
	}
	return s.cfg.DefaultTimeout
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// sessionStatus maps a registry error to its HTTP status.
func sessionStatus(err error) int {
	switch {
	case errors.Is(err, errSessionMissing):
		return http.StatusNotFound
	case errors.Is(err, errSessionGone):
		return http.StatusGone
	case errors.Is(err, errSessionPoisoned):
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
		return nil, false
	}
	return body, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	Sessions        int   `json:"sessions"`
	Inflight        int   `json:"inflight"`
	Created         int64 `json:"created"`
	Evicted         int64 `json:"evicted"`
	Steps           int64 `json:"steps"`
	Rounds          int64 `json:"rounds"`
	Sweeps          int64 `json:"sweeps"`
	Shed            int64 `json:"shed"`
	Panics          int64 `json:"panics"`
	Timeouts        int64 `json:"timeouts"`
	PlanCacheSize   int   `json:"planCacheSize"`
	PlanCacheHits   int64 `json:"planCacheHits"`
	PlanCacheMisses int64 `json:"planCacheMisses"`
	PlanCacheDedups int64 `json:"planCacheDedups"`
	Draining        bool  `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Sessions:        s.reg.len(),
		Inflight:        s.adm.inflight(),
		Created:         s.created.Load(),
		Evicted:         s.evicted.Load(),
		Steps:           s.steps.Load(),
		Rounds:          s.rounds.Load(),
		Sweeps:          s.sweeps.Load(),
		Shed:            s.adm.shed.Load(),
		Panics:          s.panics.Load(),
		Timeouts:        s.timeouts.Load(),
		PlanCacheSize:   s.cache.size(),
		PlanCacheHits:   s.cache.hits.Load(),
		PlanCacheMisses: s.cache.misses.Load(),
		PlanCacheDedups: s.cache.dedups.Load(),
		Draining:        s.draining.Load(),
	})
}

// CreateSessionResponse is the POST /v1/sessions payload.
type CreateSessionResponse struct {
	ID           string `json:"id"`
	Nodes        int    `json:"nodes"`
	Destinations int    `json:"destinations"`
	// PlanCached reports whether the plan came out of the cache (false
	// means this request paid for the optimization).
	PlanCached bool `json:"planCached"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining, not accepting sessions"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeCreateSession(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if n := req.Topology.size(); n > s.cfg.MaxNodes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: %d nodes exceed this server's limit of %d", n, s.cfg.MaxNodes))
		return
	}
	if s.reg.len() >= s.cfg.MaxSessions {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("serve: session limit %d reached", s.cfg.MaxSessions))
		return
	}
	sim, entry, cached, err := s.buildSession(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess := s.reg.add(tenantOf(r), body, sim)
	s.created.Add(1)
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID:           sess.id,
		Nodes:        entry.net.Len(),
		Destinations: len(entry.specs),
		PlanCached:   cached,
	})
}

// buildSession resolves a validated create request into a live simulator,
// going through the plan cache for the expensive shared parts.
func (s *Server) buildSession(req *CreateSessionRequest) (stepper, *planEntry, bool, error) {
	key, err := req.PlanKey()
	if err != nil {
		return nil, nil, false, err
	}
	missesBefore := s.cache.misses.Load()
	entry, err := s.cache.get(key, func() (*planEntry, error) {
		return buildEntry(&req.Topology, &req.Workload, req.Router)
	})
	if err != nil {
		return nil, nil, false, err
	}
	sim, err := newSimulator(entry, req)
	if err != nil {
		return nil, nil, false, err
	}
	return sim, entry, s.cache.misses.Load() == missesBefore, nil
}

// SessionInfo is the GET /v1/sessions/{id} payload.
type SessionInfo struct {
	ID           string  `json:"id"`
	Tenant       string  `json:"tenant"`
	Rounds       int     `json:"rounds"`
	TotalEnergyJ float64 `json:"totalEnergyJ"`
	Poisoned     string  `json:"poisoned,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.get(r.PathValue("id"))
	if err != nil {
		writeError(w, sessionStatus(err), err)
		return
	}
	sess.mu.Lock()
	info := SessionInfo{
		ID:           sess.id,
		Tenant:       sess.tenant,
		Rounds:       sess.sim.Rounds(),
		TotalEnergyJ: sess.sim.TotalEnergyJ(),
		Poisoned:     sess.poisoned,
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDestroy(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.destroy(r.PathValue("id")); err != nil {
		writeError(w, sessionStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// StepResponse is the POST /v1/sessions/{id}/step payload.
type StepResponse struct {
	ID     string       `json:"id"`
	Events []*StepEvent `json:"events"`
	// Truncated is set when the request deadline expired mid-step; the
	// events already executed are returned (the session keeps them — a
	// retry continues from the next round).
	Truncated    bool    `json:"truncated,omitempty"`
	Rounds       int     `json:"rounds"`
	TotalEnergyJ float64 `json:"totalEnergyJ"`
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.get(r.PathValue("id"))
	if err != nil {
		writeError(w, sessionStatus(err), err)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeStep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Rounds > s.cfg.MaxStepRounds {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: %d rounds exceed this server's limit of %d", req.Rounds, s.cfg.MaxStepRounds))
		return
	}
	events := make([]*StepEvent, 0, req.Rounds)
	err = sess.step(r.Context(), req.Rounds, req.Values, func(ev *StepEvent) {
		events = append(events, ev)
	})
	s.steps.Add(1)
	s.rounds.Add(int64(len(events)))
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		// Graceful degradation: the admitted request ran out of budget
		// mid-batch. Completed rounds are real (the session advanced);
		// report them with the truncation flag.
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		return // client gone; nothing to write to
	default:
		writeError(w, sessionStatus(err), err)
		return
	}
	sess.mu.Lock()
	resp := StepResponse{
		ID:           sess.id,
		Events:       events,
		Truncated:    err != nil,
		Rounds:       sess.sim.Rounds(),
		TotalEnergyJ: sess.sim.TotalEnergyJ(),
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
