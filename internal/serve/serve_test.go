package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"m2m"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// createBody is the canonical test session: the GDI network, a small
// generated workload, random-walk readings differing by seed.
func createBody(readingSeed int64) []byte {
	return []byte(fmt.Sprintf(`{
		"topology": {"kind": "gdi"},
		"workload": {"generate": {"destFraction": 0.15, "sourcesPerDest": 5, "dispersion": 0.9, "maxHops": 4, "seed": 7}},
		"readings": {"kind": "walk", "seed": %d}
	}`, readingSeed))
}

func doReq(t *testing.T, method, url string, body []byte, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data, resp.Header
}

func mustCreate(t *testing.T, ts *httptest.Server, body []byte) CreateSessionResponse {
	t.Helper()
	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions", body, nil)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, data)
	}
	var resp CreateSessionResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("create response: %v", err)
	}
	return resp
}

func mustStep(t *testing.T, ts *httptest.Server, id string, rounds int) StepResponse {
	t.Helper()
	body := []byte(fmt.Sprintf(`{"rounds": %d}`, rounds))
	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", body, nil)
	if status != http.StatusOK {
		t.Fatalf("step: status %d: %s", status, data)
	}
	var resp StepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("step response: %v", err)
	}
	return resp
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := mustCreate(t, ts, createBody(1))
	if created.Nodes != 68 {
		t.Fatalf("GDI session reports %d nodes, want 68", created.Nodes)
	}
	if created.Destinations == 0 {
		t.Fatalf("no destinations in created session")
	}

	status, data, _ := doReq(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
	if status != http.StatusOK {
		t.Fatalf("info: status %d: %s", status, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Rounds != 0 || info.Tenant != "anon" {
		t.Fatalf("fresh session info = %+v", info)
	}

	sr := mustStep(t, ts, created.ID, 3)
	if len(sr.Events) != 3 || sr.Rounds != 3 {
		t.Fatalf("step: %d events, %d rounds", len(sr.Events), sr.Rounds)
	}
	for i, ev := range sr.Events {
		if ev.Round != i {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
		if ev.ValuesHash == "" {
			t.Fatalf("event %d missing values hash", i)
		}
		if ev.Fresh == 0 {
			t.Fatalf("fault-free round %d served no destination fresh", i)
		}
	}

	status, _, _ = doReq(t, "DELETE", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
	if status != http.StatusNoContent {
		t.Fatalf("destroy: status %d", status)
	}
	// Step after destroy: the honest 410, not a 404 or a crash.
	status, data, _ = doReq(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/step", []byte(`{}`), nil)
	if status != http.StatusGone {
		t.Fatalf("step after destroy: status %d: %s", status, data)
	}
	status, _, _ = doReq(t, "GET", ts.URL+"/v1/sessions/s-ffffffff", nil, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", status)
	}
}

// TestServedMatchesLocalRun is the determinism contract end to end: the
// server driving a session over HTTP yields byte-identical value hashes
// to the library run locally from the same creation payload.
func TestServedMatchesLocalRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := createBody(42)
	created := mustCreate(t, ts, body)
	sr := mustStep(t, ts, created.ID, 5)

	req, err := DecodeCreateSession(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	local, err := BuildSession(req)
	if err != nil {
		t.Fatalf("BuildSession: %v", err)
	}
	for i, ev := range sr.Events {
		st, err := local.Step()
		if err != nil {
			t.Fatalf("local step %d: %v", i, err)
		}
		if got := HashValues(st.Values); got != ev.ValuesHash {
			t.Fatalf("round %d: served hash %s, local %s", i, ev.ValuesHash, got)
		}
	}
}

// TestPlanCacheSingleflight: a thundering herd of identical triples pays
// for exactly one optimization.
func TestPlanCacheSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const herd = 8
	var wg sync.WaitGroup
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions", createBody(int64(i)), nil)
			if status != http.StatusCreated {
				errs[i] = fmt.Errorf("status %d: %s", status, data)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if got := s.cache.misses.Load(); got != 1 {
		t.Fatalf("%d optimizations for %d identical tenants, want 1", got, herd)
	}
	if got := s.reg.len(); got != herd {
		t.Fatalf("%d live sessions, want %d", got, herd)
	}
	if s.cache.hits.Load()+s.cache.dedups.Load() != herd-1 {
		t.Fatalf("hits %d + dedups %d don't cover the other %d creates",
			s.cache.hits.Load(), s.cache.dedups.Load(), herd-1)
	}
}

// fakeSim stands in for a ResilientSession where the test needs precise
// control over timing, blocking, or failure.
type fakeSim struct {
	mu      sync.Mutex
	round   int
	sleep   time.Duration
	panicAt int           // panic when stepping this (1-based) round; 0 = never
	block   chan struct{} // when non-nil, Step blocks until closed
}

func (f *fakeSim) Step() (*m2m.ResilientStep, error) {
	if f.block != nil {
		<-f.block
	}
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	f.mu.Lock()
	f.round++
	r := f.round
	f.mu.Unlock()
	if f.panicAt > 0 && r >= f.panicAt {
		panic("synthetic simulator blowup")
	}
	return &m2m.ResilientStep{
		Round:  r - 1,
		Values: map[m2m.NodeID]float64{1: float64(r)},
		Fresh:  1, EnergyJ: 0.5,
	}, nil
}

func (f *fakeSim) Rounds() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.round
}

func (f *fakeSim) TotalEnergyJ() float64 { return 0 }

// TestAdmissionSheds: with one slot and a queue of one, a concurrent
// blocked request plus a queued one fill the gates; the third request is
// shed instantly with 429 + Retry-After, and every admitted request still
// completes once the slot frees.
func TestAdmissionSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, PerTenantInflight: 1, QueueDepth: 1})
	blocker := &fakeSim{block: make(chan struct{})}
	sess := s.reg.add("anon", nil, blocker)

	done := make(chan int, 2)
	stepOnce := func() {
		status, _, _ := doReq(t, "POST", ts.URL+"/v1/sessions/"+sess.id+"/step", []byte(`{"rounds":1}`), nil)
		done <- status
	}
	go stepOnce() // occupies the slot
	waitFor(t, func() bool { return s.adm.inflight() == 1 })
	go stepOnce()                     // fills the queue of 1
	time.Sleep(50 * time.Millisecond) // let the queued request actually queue

	// Third request: slot busy, queue full → shed immediately.
	status, data, hdr := doReq(t, "POST", ts.URL+"/v1/sessions/"+sess.id+"/step", []byte(`{"rounds":1}`), nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overload answered %d (%s), want 429", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if s.adm.shed.Load() == 0 {
		t.Fatalf("shed counter not bumped")
	}

	close(blocker.block) // release; both admitted requests must finish OK
	for i := 0; i < 2; i++ {
		select {
		case st := <-done:
			if st != http.StatusOK {
				t.Fatalf("admitted request finished with %d", st)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("admitted request never finished")
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never became true")
}

// TestDeadlineTruncatesStep: an admitted request whose deadline expires
// mid-batch returns the completed rounds with the truncation flag — the
// session advanced exactly that far and stays healthy.
func TestDeadlineTruncatesStep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	slow := &fakeSim{sleep: 30 * time.Millisecond}
	sess := s.reg.add("anon", nil, slow)

	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions/"+sess.id+"/step",
		[]byte(`{"rounds":1000}`), map[string]string{"X-Timeout-Ms": "150"})
	if status != http.StatusOK {
		t.Fatalf("deadline step: status %d: %s", status, data)
	}
	var sr StepResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("step response: %v", err)
	}
	if !sr.Truncated {
		t.Fatalf("1000 slow rounds under a 150ms deadline did not truncate")
	}
	if len(sr.Events) == 0 || len(sr.Events) >= 1000 {
		t.Fatalf("truncated step returned %d events", len(sr.Events))
	}
	if slow.Rounds() != len(sr.Events) {
		t.Fatalf("simulator ran %d rounds but %d were reported", slow.Rounds(), len(sr.Events))
	}
	// The session is not poisoned — a follow-up step continues.
	sr2 := mustStep(t, ts, sess.id, 1)
	if len(sr2.Events) != 1 {
		t.Fatalf("post-deadline step: %d events", len(sr2.Events))
	}
}

// TestPanicPoisonsSession: a panic inside one tenant's simulator turns
// into a 500 for that session only; the server keeps serving others and
// later use of the poisoned session reports the quarantine.
func TestPanicPoisonsSession(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bomb := &fakeSim{panicAt: 2}
	sess := s.reg.add("anon", nil, bomb)
	healthy := mustCreate(t, ts, createBody(3))

	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions/"+sess.id+"/step", []byte(`{"rounds":5}`), nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking step: status %d: %s", status, data)
	}
	if !strings.Contains(string(data), "poisoned") {
		t.Fatalf("panicking step body: %s", data)
	}
	// Poisoned stays poisoned.
	status, data, _ = doReq(t, "POST", ts.URL+"/v1/sessions/"+sess.id+"/step", []byte(`{}`), nil)
	if status != http.StatusInternalServerError || !strings.Contains(string(data), "poisoned") {
		t.Fatalf("second step on poisoned session: %d %s", status, data)
	}
	var info SessionInfo
	status, data, _ = doReq(t, "GET", ts.URL+"/v1/sessions/"+sess.id, nil, nil)
	if status != http.StatusOK || json.Unmarshal(data, &info) != nil || info.Poisoned == "" {
		t.Fatalf("poisoned info: %d %s", status, data)
	}
	// The neighbor tenant is untouched.
	if sr := mustStep(t, ts, healthy.ID, 1); len(sr.Events) != 1 {
		t.Fatalf("healthy session broken by neighbor's panic")
	}
	// And the poisoned slot can still be destroyed.
	if status, _, _ = doReq(t, "DELETE", ts.URL+"/v1/sessions/"+sess.id, nil, nil); status != http.StatusNoContent {
		t.Fatalf("destroy poisoned: %d", status)
	}
}

func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := mustCreate(t, ts, createBody(9))
	resp, err := http.Get(ts.URL + "/v1/sessions/" + created.ID + "/stream?rounds=4")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []StepEvent
	for sc.Scan() {
		var ev StepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("stream delivered %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Round != i || ev.ValuesHash == "" {
			t.Fatalf("stream event %d = %+v", i, ev)
		}
	}
}

// TestStreamClientDisconnect: hanging up mid-stream stops the simulation
// at the next round boundary and leaves the session usable.
func TestStreamClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	slow := &fakeSim{sleep: 10 * time.Millisecond}
	sess := s.reg.add("anon", nil, slow)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + sess.id + "/stream?rounds=10000")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream read: %v", err)
	}
	resp.Body.Close() // hang up mid-stream

	// The step loop must notice within a few round boundaries.
	var settled int
	waitFor(t, func() bool {
		n := slow.Rounds()
		time.Sleep(50 * time.Millisecond)
		settled = slow.Rounds()
		return settled == n
	})
	if settled >= 10000 {
		t.Fatalf("server simulated all %d rounds for a dead client", settled)
	}
	// Session still healthy.
	if sr := mustStep(t, ts, sess.id, 1); len(sr.Events) != 1 {
		t.Fatalf("session unusable after disconnect")
	}
}

// TestIdleEviction: sessions untouched past the idle timeout are evicted
// by the janitor and answer 410 afterwards.
func TestIdleEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{IdleTimeout: 60 * time.Millisecond})
	created := mustCreate(t, ts, createBody(5))
	waitFor(t, func() bool { return s.evicted.Load() > 0 })
	status, data, _ := doReq(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
	if status != http.StatusGone {
		t.Fatalf("evicted session: status %d: %s", status, data)
	}
	if s.reg.len() != 0 {
		t.Fatalf("%d sessions survive eviction", s.reg.len())
	}
}

// TestDrain: BeginDrain flips readiness and refuses new sessions while
// existing sessions still step to completion — shutdown never truncates
// a round.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	created := mustCreate(t, ts, createBody(6))

	if status, _, _ := doReq(t, "GET", ts.URL+"/readyz", nil, nil); status != http.StatusOK {
		t.Fatalf("readyz before drain: %d", status)
	}
	s.BeginDrain()
	if status, _, _ := doReq(t, "GET", ts.URL+"/readyz", nil, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: want 503")
	}
	if status, _, _ := doReq(t, "GET", ts.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthz must stay 200 during drain")
	}
	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions", createBody(7), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %d %s", status, data)
	}
	// In-flight tenants finish their rounds.
	if sr := mustStep(t, ts, created.ID, 2); len(sr.Events) != 2 {
		t.Fatalf("draining server truncated a step")
	}
}

func sweepBody() []byte {
	return []byte(`{
		"topology": {"kind": "random", "nodes": 40, "seed": 3},
		"workload": {"generate": {"destFraction": 0.15, "sourcesPerDest": 4, "dispersion": 0.9, "maxHops": 4, "seed": 3}},
		"seedFrom": 10, "seedTo": 14,
		"variants": [
			{"name": "baseline"},
			{"name": "lossy", "loss": 0.2, "rounds": 3}
		]
	}`)
}

func TestSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sweep", sweepBody(), nil)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, data)
	}
	var resp SweepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("sweep response: %v", err)
	}
	if len(resp.Variants) != 2 {
		t.Fatalf("%d variants, want 2", len(resp.Variants))
	}
	for _, v := range resp.Variants {
		if len(v.Results) != 4 {
			t.Fatalf("variant %s: %d results, want 4", v.Name, len(v.Results))
		}
		for i, r := range v.Results {
			if r.Seed != int64(10+i) || r.EnergyJ <= 0 || r.ValuesHash == "" {
				t.Fatalf("variant %s result %d = %+v", v.Name, i, r)
			}
		}
	}
	// Determinism: the identical sweep yields the identical bytes.
	_, data2, _ := doReq(t, "POST", ts.URL+"/v1/sweep", sweepBody(), nil)
	if !bytes.Equal(data, data2) {
		t.Fatalf("sweep is not deterministic:\n%s\nvs\n%s", data, data2)
	}
}

// TestSweepBatchedMatchesSession: the RunConcurrent fast path and a real
// served session agree on a fault-free round — same readings seed, same
// value hash.
func TestSweepBatchedMatchesSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data, _ := doReq(t, "POST", ts.URL+"/v1/sweep", []byte(`{
		"topology": {"kind": "gdi"},
		"workload": {"generate": {"destFraction": 0.15, "sourcesPerDest": 5, "dispersion": 0.9, "maxHops": 4, "seed": 7}},
		"seedFrom": 42, "seedTo": 43,
		"variants": [{"name": "one"}]
	}`), nil)
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, data)
	}
	var resp SweepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("sweep response: %v", err)
	}
	// createBody(42) is the same triple with walk seed 42 — the sweep's
	// per-seed reading model.
	created := mustCreate(t, ts, createBody(42))
	sr := mustStep(t, ts, created.ID, 1)
	if got, want := sr.Events[0].ValuesHash, resp.Variants[0].Results[0].ValuesHash; got != want {
		t.Fatalf("session round hash %s, sweep batched hash %s", got, want)
	}
}

// TestCheckpointRestore: a drained server's sessions replay into a fresh
// server and continue with byte-identical telemetry.
func TestCheckpointRestore(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})
	plain := mustCreate(t, tsA, createBody(11))
	lossy := mustCreate(t, tsA, []byte(`{
		"topology": {"kind": "gdi"},
		"workload": {"generate": {"destFraction": 0.15, "sourcesPerDest": 5, "dispersion": 0.9, "maxHops": 4, "seed": 7}},
		"readings": {"kind": "walk", "seed": 12},
		"faults": {"seed": 5, "loss": 0.15}
	}`))
	mustStep(t, tsA, plain.ID, 4)
	mustStep(t, tsA, lossy.ID, 6)

	var buf bytes.Buffer
	sA.BeginDrain()
	if err := sA.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Continue the originals to learn the expected next rounds.
	wantPlain := mustStep(t, tsA, plain.ID, 2).Events
	wantLossy := mustStep(t, tsA, lossy.ID, 2).Events

	sB, tsB := newTestServer(t, Config{})
	n, err := sB.Restore(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 2 {
		t.Fatalf("restored %d sessions, want 2", n)
	}
	gotPlain := mustStep(t, tsB, plain.ID, 2).Events
	gotLossy := mustStep(t, tsB, lossy.ID, 2).Events
	for i := range wantPlain {
		if gotPlain[i].ValuesHash != wantPlain[i].ValuesHash || gotPlain[i].Round != wantPlain[i].Round {
			t.Fatalf("plain round %d diverged after restore", wantPlain[i].Round)
		}
	}
	for i := range wantLossy {
		if gotLossy[i].ValuesHash != wantLossy[i].ValuesHash {
			t.Fatalf("lossy round %d diverged after restore: %s vs %s",
				wantLossy[i].Round, gotLossy[i].ValuesHash, wantLossy[i].ValuesHash)
		}
	}
	// Restored sessions share one plan: the restore paid at most one miss.
	if got := sB.cache.misses.Load(); got != 1 {
		t.Fatalf("restore paid %d optimizations, want 1", got)
	}
}

// TestConcurrentLifecycleRace drives create/step/destroy/info/evict from
// many goroutines at once — the -race CI job is the real assertion.
func TestConcurrentLifecycleRace(t *testing.T) {
	s, ts := newTestServer(t, Config{IdleTimeout: 80 * time.Millisecond})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			created := mustCreate(t, ts, createBody(int64(w)))
			var inner sync.WaitGroup
			for g := 0; g < 3; g++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					// Concurrent steps on one session serialize behind its
					// lock; concurrent info reads race the steps.
					status, _, _ := doReq(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/step", []byte(`{"rounds":2}`), nil)
					if status != http.StatusOK && status != http.StatusGone {
						t.Errorf("concurrent step: status %d", status)
					}
					doReq(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
				}()
			}
			inner.Wait()
			status, _, _ := doReq(t, "DELETE", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
			if status != http.StatusNoContent && status != http.StatusGone {
				t.Errorf("destroy: status %d", status)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Exercise the janitor against fresh sessions too.
	mustCreate(t, ts, createBody(99))
	waitFor(t, func() bool { return s.reg.len() == 0 })
}

// TestSharedPlanConcurrentReplans: several lossy sessions seeded from one
// cached plan recover from crashes concurrently — replans Reoptimize from
// the shared plan without mutating it, so nothing corrupts (run under
// -race).
func TestSharedPlanConcurrentReplans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := func(i int) []byte {
		return []byte(fmt.Sprintf(`{
			"topology": {"kind": "random", "nodes": 40, "seed": 3},
			"workload": {"generate": {"destFraction": 0.15, "sourcesPerDest": 4, "dispersion": 0.9, "maxHops": 4, "seed": 3}},
			"readings": {"kind": "walk", "seed": %d},
			"faults": {"seed": %d, "loss": 0.3, "crashNode": %d, "crashRound": 1}
		}`, i, i, 10+i))
	}
	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = mustCreate(t, ts, body(i)).ID
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Enough rounds for the crash to be condemned and replanned.
			sr := mustStep(t, ts, ids[i], 8)
			if len(sr.Events) != 8 {
				t.Errorf("session %d: %d events", i, len(sr.Events))
			}
		}(i)
	}
	wg.Wait()
}

func TestServerRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodes: 100})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"bad json", `{"topology":`, http.StatusBadRequest},
		{"unknown field", `{"topology":{"kind":"gdi"},"bogus":1}`, http.StatusBadRequest},
		{"unknown kind", `{"topology":{"kind":"torus","nodes":10}}`, http.StatusBadRequest},
		{"too big", `{"topology":{"kind":"random","nodes":5000,"seed":1},"workload":{"generate":{"destFraction":0.1,"sourcesPerDest":3,"dispersion":0.5}}}`, http.StatusBadRequest},
		{"no workload", `{"topology":{"kind":"gdi"},"workload":{}}`, http.StatusBadRequest},
		{"trailing garbage", `{"topology":{"kind":"gdi"},"workload":{"specs":"5 = sum(1, 2)"}} extra`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, data, _ := doReq(t, "POST", ts.URL+"/v1/sessions", []byte(tc.body), nil)
		if status != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, data, tc.status)
		}
	}
	// Stats endpoint stays coherent through the abuse.
	status, data, _ := doReq(t, "GET", ts.URL+"/v1/stats", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Sessions != 0 || st.Created != 0 {
		t.Fatalf("rejected requests leaked sessions: %+v", st)
	}
}
