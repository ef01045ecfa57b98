package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

func validateAll(t *testing.T, res *AsyncResult) {
	t.Helper()
	for d, rep := range res.Reports {
		if err := rep.Validate(); err != nil {
			t.Fatalf("dest %d report invalid: %v (report %+v)", d, err, rep)
		}
	}
}

// The anchoring invariant: with no faults at all, the event-driven round
// is byte-identical to Engine.Run — same values, same total and per-node
// energy, one transmission per planned message.
func TestAsyncFaultFreeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3; trial++ {
		inst := buildInstance(t, rng, 40, 6, 6, trial == 1)
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		readings := randomReadings(rng, inst.Net.Len())
		plain, err := eng.Run(readings)
		if err != nil {
			t.Fatal(err)
		}
		async, err := eng.RunAsync(trial, readings, nil, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if async.EnergyJ != plain.EnergyJ {
			t.Fatalf("trial %d: energy %v != %v", trial, async.EnergyJ, plain.EnergyJ)
		}
		if len(async.Values) != len(plain.Values) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(async.Values), len(plain.Values))
		}
		for d, v := range plain.Values {
			if async.Values[d] != v {
				t.Fatalf("trial %d: value at %d = %v, want %v (bit-exact)", trial, d, async.Values[d], v)
			}
		}
		for n, j := range plain.PerNodeJ {
			if async.PerNodeJ[n] != j {
				t.Fatalf("trial %d: per-node energy at %d differs", trial, n)
			}
		}
		if async.Transmissions != plain.Messages || async.Retries != 0 || async.Dropped != 0 {
			t.Fatalf("trial %d: tx=%d retries=%d dropped=%d, want %d/0/0",
				trial, async.Transmissions, async.Retries, async.Dropped, plain.Messages)
		}
		if async.DupCopies != 0 || async.SpuriousTx != 0 || async.DeadlineClosed != 0 {
			t.Fatalf("trial %d: dup=%d spurious=%d deadline=%d on a fault-free run",
				trial, async.DupCopies, async.SpuriousTx, async.DeadlineClosed)
		}
		if async.MakespanMS <= 0 {
			t.Fatalf("trial %d: makespan %v, want > 0 (serialization takes time)", trial, async.MakespanMS)
		}
		for d, rep := range async.Reports {
			if !rep.Fresh || rep.Starved || rep.DeadlineHit || rep.AgeRounds != 0 {
				t.Fatalf("trial %d: dest %d not cleanly fresh: %+v", trial, d, rep)
			}
		}
		validateAll(t, async)
	}
}

// Jitter alone delays deliveries but loses nothing: values and energy must
// still match the synchronous round exactly (no spurious retransmissions
// at these latencies), and the makespan stretches.
func TestAsyncJitterOnlyMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	plain, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(5).WithJitter(2, 20)
	async, err := eng.RunAsync(0, readings, inj, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for d, v := range plain.Values {
		if async.Values[d] != v {
			t.Fatalf("value at %d = %v, want %v", d, async.Values[d], v)
		}
	}
	if async.EnergyJ != plain.EnergyJ {
		t.Fatalf("jitter changed energy: %v != %v", async.EnergyJ, plain.EnergyJ)
	}
	if async.Retries != 0 || async.SpuriousTx != 0 {
		t.Fatalf("retries=%d spurious=%d under loss-free jitter below the RTO", async.Retries, async.SpuriousTx)
	}
	validateAll(t, async)
}

// Duplication and reordering may change timing and energy, never values:
// a seeded run with both enabled (and no loss) delivers exactly the
// loss-free values. Per-unit messages (MergeMessages off) put several
// sequenced messages on each edge, so tag inversions are actually
// observable.
func TestAsyncDupReorderValuesUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: false})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	plain, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	sawDup, sawReorder := false, false
	for seed := int64(0); seed < 5; seed++ {
		inj := chaos.New(seed).WithJitter(1, 40).WithDuplication(0.3).WithReorder(0.3, 60)
		async, err := eng.RunAsync(int(seed), readings, inj, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(async.Values) != len(plain.Values) {
			t.Fatalf("seed %d: %d values, want %d", seed, len(async.Values), len(plain.Values))
		}
		for d, v := range plain.Values {
			if async.Values[d] != v {
				t.Fatalf("seed %d: duplication/reordering changed value at %d: %v != %v",
					seed, d, async.Values[d], v)
			}
		}
		if async.EnergyJ < plain.EnergyJ {
			t.Fatalf("seed %d: energy %v below the loss-free floor %v", seed, async.EnergyJ, plain.EnergyJ)
		}
		if async.DupCopies > 0 {
			sawDup = true
		}
		if async.Reordered > 0 {
			sawReorder = true
		}
		for _, rep := range async.Reports {
			if !rep.Fresh {
				t.Fatalf("seed %d: dest %d not fresh under loss-free channel: %+v", seed, rep.Dest, rep)
			}
		}
		validateAll(t, async)
	}
	if !sawDup {
		t.Error("30% duplication never produced a duplicate copy across 5 seeds")
	}
	if !sawReorder {
		t.Error("jitter + reorder never inverted a tag across 5 seeds")
	}
}

// Under real loss the adaptive ARQ retransmits, fresh destinations still
// get exact values, and the RTT estimators converge on links that carried
// unambiguous samples.
func TestAsyncAdaptiveRetryUnderLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	plain, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewAsyncRunner(eng, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(9).WithUniformLoss(0.3).WithJitter(2, 10)
	totalRetries := 0
	for r := 0; r < 5; r++ {
		res, err := runner.Run(r, readings, inj)
		if err != nil {
			t.Fatal(err)
		}
		totalRetries += res.Retries
		for d, rep := range res.Reports {
			if rep.Fresh && res.Values[d] != plain.Values[d] {
				t.Fatalf("round %d: fresh dest %d value %v, want %v", r, d, res.Values[d], plain.Values[d])
			}
		}
		validateAll(t, res)
	}
	if totalRetries == 0 {
		t.Error("30% loss never forced a retransmission across 5 rounds")
	}
	converged := 0
	for _, est := range runner.rtt {
		if est.valid {
			converged++
			if est.srtt <= 0 || est.srtt > 100 {
				t.Errorf("srtt %v outside the plausible 0–100ms band", est.srtt)
			}
		}
	}
	if converged == 0 {
		t.Error("no link ever collected an RTT sample")
	}
}

// An RTT far above the initial RTO forces spurious retransmissions; the
// (epoch, seq) dedup window absorbs the duplicate arrivals, so values are
// untouched while SpuriousTx and DupCopies record the waste.
func TestAsyncSpuriousRetransmitDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	inst := buildInstance(t, rng, 30, 4, 4, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	plain, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(3).WithJitter(150, 0) // constant 150ms: RTT ≈ 300ms > 200ms RTO
	async, err := eng.RunAsync(0, readings, inj, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if async.SpuriousTx == 0 || async.DupCopies == 0 {
		t.Fatalf("spurious=%d dup=%d, want both > 0 when RTT exceeds the RTO", async.SpuriousTx, async.DupCopies)
	}
	for d, v := range plain.Values {
		if async.Values[d] != v {
			t.Fatalf("spurious retransmission changed value at %d: %v != %v", d, async.Values[d], v)
		}
	}
	if async.EnergyJ <= plain.EnergyJ {
		t.Fatalf("energy %v not above the loss-free floor %v despite duplicates", async.EnergyJ, plain.EnergyJ)
	}
	validateAll(t, async)
}

// slowEdge is a test schedule: everything delivers, but from round 1 on
// one edge takes an eternity.
type slowEdge struct {
	NoFaults
	edge routing.Edge
	ms   float64
}

func (s slowEdge) LatencyMS(round int, e routing.Edge, _, _ int) float64 {
	if round >= 1 && e == s.edge {
		return s.ms
	}
	return 0
}

// A destination behind a slow link closes its round at the deadline and
// degrades gracefully: partial (or no) coverage, DeadlineHit, and the
// last-known value from the cache with its staleness age.
func TestAsyncDeadlineGracefulDegradation(t *testing.T) {
	inst := lineInstance(t, 5, []graph.NodeID{0, 1})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewAsyncRunner(eng, AsyncConfig{DeadlineMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 5, 1: 3, 2: 0, 3: 0, 4: 0}
	faults := slowEdge{edge: routing.Edge{From: 2, To: 3}, ms: 10000}

	// Round 0: fast everywhere — dest 4 is served fresh, seeding the cache.
	r0, err := runner.Run(0, readings, faults)
	if err != nil {
		t.Fatal(err)
	}
	rep0 := r0.Reports[4]
	if rep0 == nil || !rep0.Fresh || r0.Values[4] != 8 {
		t.Fatalf("round 0: report %+v value %v, want fresh 8", rep0, r0.Values[4])
	}
	validateAll(t, r0)

	// Round 1: the 2→3 link slows to 10s against a 500ms deadline.
	r1, err := runner.Run(1, readings, faults)
	if err != nil {
		t.Fatal(err)
	}
	rep1 := r1.Reports[4]
	if rep1 == nil || rep1.Fresh {
		t.Fatalf("round 1: report %+v, want degraded", rep1)
	}
	if !rep1.DeadlineHit || rep1.ClosedAtMS != 500 {
		t.Fatalf("round 1: DeadlineHit=%v ClosedAtMS=%v, want true/500", rep1.DeadlineHit, rep1.ClosedAtMS)
	}
	if !rep1.HasLastKnown || rep1.LastKnown != 8 || rep1.AgeRounds != 1 {
		t.Fatalf("round 1: cache %+v, want last-known 8 aged 1 round", rep1)
	}
	if r1.DeadlineClosed != 1 {
		t.Fatalf("round 1: DeadlineClosed = %d, want 1", r1.DeadlineClosed)
	}
	// The slow delivery still lands after the deadline: energy is charged
	// and the makespan shows it, but the closed round's value is fixed.
	if r1.MakespanMS < 10000 {
		t.Fatalf("round 1: makespan %v, want ≥ the slow delivery", r1.MakespanMS)
	}
	if r1.Dropped != 0 {
		t.Fatalf("round 1: %d dropped — nothing was lost, only late", r1.Dropped)
	}
	validateAll(t, r1)

	// Round 2: still slow — the age keeps growing.
	r2, err := runner.Run(2, readings, faults)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r2.Reports[4]; rep == nil || rep.AgeRounds != 2 || !rep.HasLastKnown {
		t.Fatalf("round 2: report %+v, want age 2 with cache intact", r2.Reports[4])
	}
	validateAll(t, r2)
}

func TestRTTEstimator(t *testing.T) {
	var est rttEstimator
	if got := est.rto(); got != initialRTOMS {
		t.Fatalf("unseeded rto = %v, want initial %v", got, initialRTOMS)
	}
	est.observe(100)
	if est.srtt != 100 || est.rttvar != 50 {
		t.Fatalf("first sample: srtt=%v rttvar=%v, want 100/50", est.srtt, est.rttvar)
	}
	if got := est.rto(); got != 300 {
		t.Fatalf("rto after first sample = %v, want srtt+4·rttvar = 300", got)
	}
	// Repeated identical samples: variance decays, srtt stays.
	for i := 0; i < 100; i++ {
		est.observe(100)
	}
	if math.Abs(est.srtt-100) > 1e-6 || est.rttvar > 1e-3 {
		t.Fatalf("converged srtt=%v rttvar=%v, want 100/≈0", est.srtt, est.rttvar)
	}
	if got := est.rto(); math.Abs(got-100) > 1e-3 {
		t.Fatalf("converged rto = %v, want ≈ srtt with vanished variance", got)
	}
	// A latency spike inflates variance and with it the timeout.
	est.observe(500)
	if est.rto() < 140 {
		t.Fatalf("rto after spike = %v, want variance-inflated", est.rto())
	}

	// A sub-millisecond RTT clamps to the floor, a huge one to the cap.
	var fast rttEstimator
	fast.observe(0.01)
	if got := fast.rto(); got != minRTOMS {
		t.Fatalf("sub-millisecond rto = %v, want floor %v", got, minRTOMS)
	}
	var slow rttEstimator
	slow.observe(1e6)
	if got := slow.rto(); got != maxRTOMS {
		t.Fatalf("huge-sample rto = %v, want cap %v", got, maxRTOMS)
	}
}

// Exponential backoff doubles a message's timeout per retransmission and
// stops at maxRTOMS: a 0→1 message to a dead receiver times out after
// 200, 400, …, 51200 ms and then twice after 60000 ms, not 102400 and
// 204800.
func TestAsyncBackoffStopsAtCap(t *testing.T) {
	p, err := plan.Optimize(lineInstance(t, 2, []graph.NodeID{0}))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunAsync(0, map[graph.NodeID]float64{0: 1, 1: 0}, chaos.New(1).Crash(1, 0), AsyncConfig{MaxRetries: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 1 || res.Outcomes[0].Attempts != 11 {
		t.Fatalf("outcomes %+v, want one message with 11 attempts", res.Outcomes)
	}
	want := initialRTOMS*(1<<9-1) + 2*maxRTOMS
	if res.MakespanMS != want {
		t.Fatalf("makespan %v, want %v (timeouts capped at %v)", res.MakespanMS, want, maxRTOMS)
	}
}

func TestAsyncConfigValidate(t *testing.T) {
	if err := (AsyncConfig{DeadlineMS: -1}).Validate(); err == nil {
		t.Error("negative deadline accepted")
	}
	if err := (AsyncConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// Crashes behave like the synchronous executor's: a dead sender is silent
// (implicating itself), a dead destination reports dead-and-starved.
func TestAsyncCrashedNodes(t *testing.T) {
	inst := lineInstance(t, 4, []graph.NodeID{0, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 5, 1: 0, 2: 7, 3: 0}
	inj := chaos.New(1).Crash(0, 0)
	res, err := eng.RunAsync(0, readings, inj, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[3]
	if rep == nil || rep.Fresh || rep.Starved {
		t.Fatalf("report = %+v, want stale partial", rep)
	}
	if len(rep.Covered) != 1 || rep.Covered[0] != 2 || res.Values[3] != 7 {
		t.Fatalf("covered %v value %v, want [2] and 7", rep.Covered, res.Values[3])
	}
	silent := false
	for _, o := range res.Outcomes {
		if o.Edge.From == 0 && o.Attempts == 0 {
			silent = true
		}
	}
	if !silent {
		t.Error("dead sender transmitted")
	}
	validateAll(t, res)

	// Dead destination.
	dinj := chaos.New(1).Crash(3, 0)
	dres, err := eng.RunAsync(0, readings, dinj, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	drep := dres.Reports[3]
	if drep == nil || !drep.DestDead || !drep.Starved || len(drep.Missing) != 2 {
		t.Fatalf("dead dest report = %+v", drep)
	}
	validateAll(t, dres)
}

// A faulted round on a reused AsyncRunner allocates a constant, whatever
// its message, retry and event counts. The warm-up's first round runs
// fault-free, so every destination is already in the last-known-value
// cache and no later round grows it.
func TestAsyncRunnerSteadyAllocs(t *testing.T) {
	eng, readings := benchExecutorEngine(t)
	runner, err := NewAsyncRunner(eng, AsyncConfig{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(0, readings, nil); err != nil {
		t.Fatal(err)
	}
	pinSteadyAllocs(t, func(i int, inj *chaos.Injector) {
		if _, err := runner.Run(i, readings, inj); err != nil {
			t.Fatal(err)
		}
	})
}

// The typed event heap pops in exactly the (t, kind, seq) order a sort
// gives, with pushes and pops interleaved, ties on t and kind included.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		var live []asyncEvent
		seq := 0
		for step := 0; step < 300; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				sort.Slice(live, func(i, j int) bool { return live[i].before(&live[j]) })
				got := q.pop()
				if got != live[0] {
					t.Fatalf("trial %d step %d: popped %+v, want %+v", trial, step, got, live[0])
				}
				live = live[1:]
				continue
			}
			seq++
			ev := asyncEvent{t: float64(rng.Intn(8)) / 2, kind: rng.Intn(evDeadline + 1), seq: seq, msg: rng.Intn(50)}
			q.push(ev)
			live = append(live, ev)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].before(&live[j]) })
		for _, want := range live {
			if got := q.pop(); got != want {
				t.Fatalf("trial %d drain: popped %+v, want %+v", trial, got, want)
			}
		}
		if len(q) != 0 {
			t.Fatalf("trial %d: %d events left", trial, len(q))
		}
	}
}

// InheritState carries RTT history by physical link, even through a plan
// that does not use the link: a link one replan drops and a later replan
// restores resumes its estimator.
func TestInheritStateCarriesLinksAcrossPlans(t *testing.T) {
	runner := func(src graph.NodeID) *AsyncRunner {
		p, err := plan.Optimize(lineInstance(t, 5, []graph.NodeID{src}))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewAsyncRunner(eng, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := runner(0) // 0→1→2→3→4
	for i := range full.rtt {
		full.rtt[i].observe(float64(10 * (i + 1)))
	}
	short := runner(2) // 2→3→4 only
	short.InheritState(full)
	if len(short.rtt) >= len(full.rtt) {
		t.Fatalf("short plan uses %d links, full plan %d", len(short.rtt), len(full.rtt))
	}
	for i, k := range short.topo.links {
		if want := full.rtt[full.topo.linkIdx[k]]; short.rtt[i] != want {
			t.Errorf("link %v: inherited %+v, want %+v", k, short.rtt[i], want)
		}
	}
	again := runner(0)
	again.InheritState(short)
	for i, k := range again.topo.links {
		if want := full.rtt[full.topo.linkIdx[k]]; again.rtt[i] != want {
			t.Errorf("link %v after a plan without it: %+v, want %+v", k, again.rtt[i], want)
		}
	}
}
