// Command m2msim runs one many-to-many aggregation scenario end to end
// and reports per-algorithm round energy, message counts, and (optionally)
// the computed destination values.
//
// Usage:
//
//	m2msim                                  # paper defaults on the GDI network
//	m2msim -nodes 150 -dests 0.25 -sources 20 -dispersion 0.5
//	m2msim -router shared -values
//	m2msim -loss 0.1                        # lossy rounds at 10% per-attempt link loss
//	m2msim -loss 0.05 -fail-node 12 -fail-round 2
//	m2msim -loss 0.1 -jitter 20             # event-driven rounds, ±20ms link jitter
//	m2msim -dup 0.2 -jitter 15 -deadline 500
//	m2msim -partition 20 -partition-round 2 -partition-len 4
//	m2msim -loss 0.05 -fail-node 12 -fail-round 2 -revive 8
//	m2msim -byzantine 7 -byz-mode amplify -byz-param 50
//	m2msim -byzantine 7 -byz-round 2 -byz-len 6 -trace stations.csv
//	m2msim -collide -capture 0.1             # contention session, adaptive TDMA switch
//	m2msim -collide -tdma -min-degree        # schedule eagerly over the low fan-in tree
//	m2msim -collide -loss 0.05 -fail-node 12 -fail-round 4
//	m2msim -scenario 8449                    # replay a generated fuzz scenario
//
// With -loss and/or -fail-node the optimal plan is additionally executed
// on the lossy engine (stop-and-wait, 3 retries) under a seeded fault
// injector, and per-round delivery outcomes are reported.
//
// -partition and -revive switch those rounds to the self-healing churn
// session: -partition severs a connected side of about that many nodes
// for -partition-len rounds (the session quarantines the severed side
// instead of condemning it), and -revive brings -fail-node back at the
// given round (the session re-admits it and replans). Per-round recovery
// telemetry — dead, quarantined, epoch-lagging nodes and epoch-fenced
// frames — is reported alongside delivery quality.
//
// Any of -jitter, -dup, or -deadline switches those rounds to the
// event-driven asynchronous engine: every transmission draws a per-link
// latency (2ms base plus up to -jitter ms), -dup is the probability a
// delivery is duplicated (the receiver's dedup window absorbs the copy),
// and -deadline closes each destination's round after that many
// milliseconds with its best partial aggregate. Retransmission timing is
// adaptive per link (RTT-estimated with exponential backoff) instead of
// the synchronous engine's fixed stop-and-wait.
//
// -byzantine switches those rounds to the outlier-quarantine session: the
// named node lies about its own reading in mode -byz-mode (stuck | offset
// | amplify | spray, scaled by -byz-param) from -byz-round for -byz-len
// rounds (0 = forever). The session's residual test flags the liar,
// excises its aggregates after a persistence window, replans without it,
// and re-admits it once the window ends and it behaves. Per-round suspect
// and excision telemetry is reported.
//
// -collide switches those rounds to the contention-adaptive session on
// the slot-contention channel: concurrent transmissions that interfere at
// a receiver destroy each other (-capture is the chance a colliding frame
// survives anyway). The session starts unscheduled, watches its smoothed
// collision rate, and switches to TDMA-scheduled transmission once the
// rate crosses its threshold — or at the first collision, with -tdma.
// -min-degree routes inside the minimum-degree spanning tree instead of
// -router, bounding receiver fan-in and with it per-receiver collision
// pressure. Per-round collision telemetry is reported.
//
// -trace replays a recorded station-trace file (one text row per round,
// one reading per node, comma- or whitespace-separated; '#' comments and
// a header line are skipped) as the reading stream instead of the default
// synthetic temperatures. The single-round comparison uses the trace's
// first row; multi-round sessions replay it in order, cycling.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"m2m"
	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/invariant"
	"m2m/internal/plan"
	"m2m/internal/sim"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 0, "random network size (0 = the 68-node Great Duck Island layout)")
		dests      = flag.Float64("dests", 0.2, "fraction of nodes acting as destinations")
		sources    = flag.Int("sources", 20, "sources per destination")
		dispersion = flag.Float64("dispersion", 0.9, "dispersion factor d in [0,1]")
		maxHops    = flag.Int("maxhops", 4, "source hop limit H (0 = uniform network-wide)")
		router     = flag.String("router", "reverse", "router: reverse | shared")
		seed       = flag.Int64("seed", 1, "workload/network seed")
		values     = flag.Bool("values", false, "print computed destination values")
		traceUnits = flag.Bool("trace-units", false, "print every message unit of the optimal plan's round")
		traceFile  = flag.String("trace", "", "replay a station-trace file (one row per round, one reading per node) as the reading stream")
		wlFile     = flag.String("workload", "", "load the workload from a spec file instead of generating it")
		loss       = flag.Float64("loss", 0, "uniform per-attempt link loss probability in [0,1); >0 runs the lossy engine")
		failNode   = flag.Int("fail-node", -1, "node to crash permanently under fault injection (-1 = none)")
		failRound  = flag.Int("fail-round", 0, "round at which -fail-node crashes")
		jitter     = flag.Float64("jitter", 0, "per-link latency jitter amplitude in ms; >0 selects the event-driven engine")
		dup        = flag.Float64("dup", 0, "per-delivery duplication probability in [0,1); >0 selects the event-driven engine")
		deadline   = flag.Float64("deadline", 0, "round deadline in ms (0 = none); >0 selects the event-driven engine")
		partition  = flag.Int("partition", 0, "sever a connected side of about this many nodes (>0 selects the churn session)")
		partRound  = flag.Int("partition-round", 1, "round at which the partition starts")
		partLen    = flag.Int("partition-len", 3, "rounds the partition lasts before healing")
		revive     = flag.Int("revive", 0, "round at which -fail-node comes back to life (0 = never; >0 selects the churn session)")
		battery    = flag.Float64("battery", 0, "per-node battery capacity in joules (>0 selects the battery session)")
		evacuate   = flag.Int("evac-horizon", 0, "evacuate a relay when its forecast time-to-death drops to this many rounds (0 = reactive only; requires -battery)")
		byzNode    = flag.Int("byzantine", -1, "node that lies about its own reading (-1 = none; >=0 selects the quarantine session)")
		byzMode    = flag.String("byz-mode", "stuck", "misbehavior mode for -byzantine: stuck | offset | amplify | spray")
		byzParam   = flag.Float64("byz-param", 1000, "misbehavior parameter: stuck value, per-round offset, gain, or spray amplitude")
		byzRound   = flag.Int("byz-round", 0, "round at which -byzantine starts lying")
		byzLen     = flag.Int("byz-len", 0, "rounds the lying lasts (0 = forever)")
		collide    = flag.Bool("collide", false, "run rounds on the slot-contention channel (selects the contention session)")
		capture    = flag.Float64("capture", 0, "capture probability in [0,1): chance a colliding frame survives anyway (requires -collide)")
		tdma       = flag.Bool("tdma", false, "switch to TDMA-scheduled transmission at the first observed collision instead of the default contention threshold (requires -collide)")
		minDegree  = flag.Bool("min-degree", false, "route inside the minimum-degree spanning tree (low fan-in; replaces -router)")
		scenario   = flag.Int64("scenario", 0, "replay generated fuzz scenario with this seed end to end, printing the invariant report (ignores the other flags)")
	)
	flag.Parse()
	if *scenario != 0 {
		os.Exit(runScenario(*scenario))
	}
	validateFlags(*loss, *failNode, *failRound, *jitter, *dup, *deadline, *partition, *partRound, *partLen, *revive, *battery, *evacuate, *router, *byzNode, *byzMode, *byzRound, *byzLen, *collide, *capture, *minDegree)

	var net *m2m.Network
	if *nodes > 0 {
		net = m2m.RandomNetwork(*nodes, *seed)
	} else {
		net = m2m.GreatDuckIsland()
	}
	var kind m2m.RouterKind
	switch *router {
	case "reverse":
		kind = m2m.RouterReversePath
	case "shared":
		kind = m2m.RouterSharedTree
	default:
		fmt.Fprintf(os.Stderr, "m2msim: unknown router %q\n", *router)
		os.Exit(2)
	}
	if *minDegree {
		kind = m2m.RouterMinDegree
	}

	var specs []m2m.Spec
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		check(err)
		specs, err = m2m.ParseWorkload(f)
		f.Close()
		check(err)
	} else {
		var err error
		specs, err = net.GenerateWorkload(m2m.WorkloadConfig{
			DestFraction:   *dests,
			SourcesPerDest: *sources,
			Dispersion:     *dispersion,
			MaxHops:        *maxHops,
			Seed:           *seed,
		})
		check(err)
	}
	inst, err := net.NewInstance(specs, kind)
	check(err)

	rng := rand.New(rand.NewSource(*seed))
	readings := make(map[m2m.NodeID]float64, net.Len())
	for i := 0; i < net.Len(); i++ {
		readings[m2m.NodeID(i)] = 20 + rng.NormFloat64()*5 // temperature-ish
	}
	var traceRows [][]float64
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		check(err)
		traceRows, err = m2m.ParseTrace(f)
		f.Close()
		check(err)
		tr, err := m2m.NewTraceReadings(net.Len(), traceRows)
		check(err)
		readings = tr.Next() // the comparison below sees the trace's first round
	}
	// newGen builds the reading stream the multi-round sessions consume:
	// a fresh replay of the trace, or the fixed synthetic readings above.
	newGen := func() m2m.ReadingGenerator {
		if traceRows != nil {
			tr, err := m2m.NewTraceReadings(net.Len(), traceRows)
			check(err)
			return tr
		}
		return fixedReadings(readings)
	}

	fmt.Printf("network: %d nodes, %d edges; workload: %d destinations × %d sources (d=%.2f)\n",
		net.Len(), net.Graph.NumEdges(), len(specs), *sources, *dispersion)
	if traceRows != nil {
		fmt.Printf("readings: replaying %s (%d stations × %d rounds, cycling)\n",
			*traceFile, net.Len(), len(traceRows))
	}

	opt, err := m2m.Optimize(inst)
	check(err)
	fmt.Printf("optimal plan: %d units over %d edges\n", len(opt.Units()), len(inst.EdgeList))

	if *traceUnits {
		eng, err := sim.NewEngine(opt, net.Radio, sim.Options{MergeMessages: true})
		check(err)
		fmt.Println("\nexecution trace (topological unit order):")
		_, err = eng.RunObserved(readings, func(u plan.Unit, raw float64, rec agg.Record) {
			if u.Kind == plan.UnitRaw {
				fmt.Printf("  %3d→%-3d raw    src=%-3d value=%.4f\n", u.Edge.From, u.Edge.To, u.Node, raw)
			} else {
				fmt.Printf("  %3d→%-3d record dst=%-3d partial=%v\n", u.Edge.From, u.Edge.To, u.Node, rec)
			}
		})
		check(err)
		fmt.Println()
	}

	type algo struct {
		name string
		run  func() (energyJ float64, messages int, err error)
	}
	algos := []algo{
		{"optimal", func() (float64, int, error) {
			r, err := m2m.Execute(opt, net, readings)
			if err != nil {
				return 0, 0, err
			}
			if *values {
				printValues(r.Values)
			}
			return r.EnergyJ, r.Messages, nil
		}},
		{"multicast", func() (float64, int, error) {
			r, err := m2m.Execute(m2m.Multicast(inst), net, readings)
			if err != nil {
				return 0, 0, err
			}
			return r.EnergyJ, r.Messages, nil
		}},
		{"aggregation", func() (float64, int, error) {
			r, err := m2m.Execute(m2m.AggregateASAP(inst), net, readings)
			if err != nil {
				return 0, 0, err
			}
			return r.EnergyJ, r.Messages, nil
		}},
		{"flood", func() (float64, int, error) {
			r, err := m2m.Flood(net, specs, readings)
			if err != nil {
				return 0, 0, err
			}
			return r.EnergyJ, r.Broadcasts, nil
		}},
	}
	fmt.Printf("\n%-12s %14s %10s\n", "algorithm", "round energy", "messages")
	for _, a := range algos {
		e, m, err := a.run()
		check(err)
		fmt.Printf("%-12s %11.2f mJ %10d\n", a.name, e*1e3, m)
	}

	switch {
	case *collide:
		runContention(net, specs, kind, newGen(), *seed, *loss, *capture, *failNode, *failRound, *tdma)
	case *byzNode >= 0:
		runByzantine(net, specs, kind, newGen(), *seed, *loss, *failNode, *failRound, *byzNode, *byzMode, *byzParam, *byzRound, *byzLen)
	case *battery > 0:
		runBattery(net, specs, kind, newGen(), *seed, *loss, *battery, *evacuate)
	case *partition > 0 || *revive > 0:
		runChurn(net, specs, kind, newGen(), *seed, *loss, *failNode, *failRound, *revive, *partition, *partRound, *partLen)
	case *loss > 0 || *failNode >= 0 || *jitter > 0 || *dup > 0 || *deadline > 0:
		runChaos(opt, net, readings, *seed, *loss, *failNode, *failRound, *jitter, *dup, *deadline)
	}
}

// validateFlags rejects inconsistent flag combinations up front, before
// any network or workload is built, so mistakes fail fast with a clear
// message instead of surfacing as a confusing mid-run error.
func validateFlags(loss float64, failNode, failRound int, jitter, dup, deadline float64, partition, partRound, partLen, revive int, battery float64, evacuate int, router string, byzNode int, byzMode string, byzRound, byzLen int, collide bool, capture float64, minDegree bool) {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "m2msim: "+format+"\n", args...)
		os.Exit(2)
	}
	if loss < 0 || loss >= 1 {
		fail("-loss %v outside [0,1)", loss)
	}
	if dup < 0 || dup >= 1 {
		fail("-dup %v outside [0,1)", dup)
	}
	if jitter < 0 {
		fail("negative -jitter %v", jitter)
	}
	if deadline < 0 {
		fail("negative -deadline %v", deadline)
	}
	if set["fail-round"] && failNode < 0 {
		fail("-fail-round %d without -fail-node", failRound)
	}
	if failNode >= 0 && failRound < 0 {
		fail("negative -fail-round %d", failRound)
	}
	if revive != 0 {
		if revive < 0 {
			fail("negative -revive %d", revive)
		}
		if failNode < 0 {
			fail("-revive %d without -fail-node", revive)
		}
		if revive <= failRound {
			fail("-revive %d not after -fail-round %d", revive, failRound)
		}
	}
	if (set["partition-round"] || set["partition-len"]) && partition == 0 {
		fail("-partition-round/-partition-len without -partition")
	}
	if partition < 0 {
		fail("negative -partition %d", partition)
	}
	if partition > 0 {
		if partRound < 0 {
			fail("negative -partition-round %d", partRound)
		}
		if partLen <= 0 {
			fail("-partition-len %d must be positive", partLen)
		}
	}
	if (partition > 0 || revive > 0) && (jitter > 0 || dup > 0 || deadline > 0) {
		fail("-partition/-revive run the synchronous churn session; drop -jitter/-dup/-deadline")
	}
	if battery < 0 {
		fail("negative -battery %v", battery)
	}
	if evacuate != 0 {
		if evacuate < 0 {
			fail("negative -evac-horizon %d", evacuate)
		}
		if battery == 0 {
			fail("-evac-horizon %d without -battery", evacuate)
		}
		if router != "reverse" {
			fail("-evac-horizon requires -router reverse (weighted detours)")
		}
	}
	if battery > 0 && (jitter > 0 || dup > 0 || deadline > 0 || partition > 0 || revive > 0) {
		fail("-battery runs the synchronous battery session; drop -jitter/-dup/-deadline/-partition/-revive")
	}
	if (set["capture"] || set["tdma"]) && !collide {
		fail("-capture/-tdma without -collide")
	}
	if capture < 0 || capture >= 1 {
		fail("-capture %v outside [0,1)", capture)
	}
	if minDegree && set["router"] {
		fail("-min-degree replaces -router; drop one")
	}
	if collide {
		if jitter > 0 || dup > 0 || deadline > 0 {
			fail("-collide runs the synchronous contention session; drop -jitter/-dup/-deadline")
		}
		if battery > 0 || partition > 0 || revive > 0 || byzNode >= 0 {
			fail("-collide cannot combine with -battery/-partition/-revive/-byzantine")
		}
	}
	if (set["byz-mode"] || set["byz-round"] || set["byz-len"] || set["byz-param"]) && byzNode < 0 {
		fail("-byz-mode/-byz-round/-byz-len/-byz-param without -byzantine")
	}
	if byzNode >= 0 {
		if _, err := chaos.ParseByzMode(byzMode); err != nil {
			fail("%v", err)
		}
		if byzRound < 0 {
			fail("negative -byz-round %d", byzRound)
		}
		if byzLen < 0 {
			fail("negative -byz-len %d", byzLen)
		}
		if jitter > 0 || dup > 0 || deadline > 0 {
			fail("-byzantine runs the synchronous quarantine session; drop -jitter/-dup/-deadline")
		}
		if battery > 0 || partition > 0 || revive > 0 {
			fail("-byzantine cannot combine with -battery/-partition/-revive")
		}
	}
}

// runChaos executes the optimal plan under a seeded fault injector and
// prints per-round delivery outcomes: on the synchronous lossy engine by
// default, or on the event-driven asynchronous engine when any timing
// dimension (jitter, duplication, deadline) is requested.
func runChaos(opt *m2m.Plan, net *m2m.Network, readings map[m2m.NodeID]float64, seed int64, loss float64, failNode, failRound int, jitter, dup, deadline float64) {
	if loss < 0 || loss >= 1 {
		fmt.Fprintf(os.Stderr, "m2msim: -loss %v outside [0,1)\n", loss)
		os.Exit(2)
	}
	inj := chaos.New(seed)
	if loss > 0 {
		inj.WithUniformLoss(loss)
	}
	async := jitter > 0 || dup > 0 || deadline > 0
	if jitter > 0 {
		inj.WithJitter(2, jitter)
	}
	if dup > 0 {
		inj.WithDuplication(dup)
	}
	rounds := 1
	if failNode >= 0 {
		if failNode >= net.Len() {
			fmt.Fprintf(os.Stderr, "m2msim: -fail-node %d outside the %d-node network\n", failNode, net.Len())
			os.Exit(2)
		}
		if failRound < 0 {
			fmt.Fprintf(os.Stderr, "m2msim: negative -fail-round %d\n", failRound)
			os.Exit(2)
		}
		inj.Crash(m2m.NodeID(failNode), failRound)
		rounds = failRound + 2 // watch at least one round past the crash
	}
	if async && rounds < 3 {
		rounds = 3 // give the per-link RTT estimators rounds to adapt
	}
	check(inj.Validate())
	eng, err := sim.NewEngine(opt, net.Radio, sim.Options{MergeMessages: true})
	check(err)

	const retries = 3
	if async {
		runner, err := sim.NewAsyncRunner(eng, sim.AsyncConfig{MaxRetries: retries, DeadlineMS: deadline})
		check(err)
		fmt.Printf("\nasync fault injection (seed %d, loss %.3f, jitter %.0fms, dup %.2f, deadline %.0fms, %d retries):\n",
			seed, loss, jitter, dup, deadline, retries)
		fmt.Printf("%-6s %14s %8s %8s %8s %7s %7s %7s %9s %5s %9s\n",
			"round", "energy", "tx", "retries", "dropped", "fresh", "stale", "starved", "makespan", "dups", "deadlined")
		for r := 0; r < rounds; r++ {
			res, err := runner.Run(r, readings, inj)
			check(err)
			fresh, stale, starved := countReports(res.Reports)
			fmt.Printf("%-6d %11.2f mJ %8d %8d %8d %7d %7d %7d %7.0fms %5d %9d\n",
				r, res.EnergyJ*1e3, res.Transmissions, res.Retries, res.Dropped,
				fresh, stale, starved, res.MakespanMS, res.DupCopies, res.DeadlineClosed)
		}
		return
	}
	fmt.Printf("\nfault injection (seed %d, loss %.3f, %d retries):\n", seed, loss, retries)
	fmt.Printf("%-6s %14s %8s %8s %8s %7s %7s %7s\n",
		"round", "energy", "tx", "retries", "dropped", "fresh", "stale", "starved")
	for r := 0; r < rounds; r++ {
		res, err := eng.RunLossy(r, readings, inj, retries)
		check(err)
		fresh, stale, starved := countReports(res.Reports)
		fmt.Printf("%-6d %11.2f mJ %8d %8d %8d %7d %7d %7d\n",
			r, res.EnergyJ*1e3, res.Transmissions, res.Retries, res.Dropped, fresh, stale, starved)
	}
}

// runContention drives the contention-adaptive session on the
// slot-contention channel: rounds start unscheduled, the session watches
// its smoothed collision rate, and once the rate crosses the switch
// threshold (or at the first collision, with -tdma) it floods a TDMA
// frame and runs scheduled from then on. Per-round collision telemetry
// is printed alongside delivery quality.
func runContention(net *m2m.Network, specs []m2m.Spec, kind m2m.RouterKind, gen m2m.ReadingGenerator, seed int64, loss, capture float64, failNode, failRound int, eager bool) {
	inj := m2m.NewFaultInjector(seed).WithCollisions(capture)
	if loss > 0 {
		inj.WithUniformLoss(loss)
	}
	rounds := 8
	if failNode >= 0 {
		if failNode >= net.Len() {
			fmt.Fprintf(os.Stderr, "m2msim: -fail-node %d outside the %d-node network\n", failNode, net.Len())
			os.Exit(2)
		}
		inj.Crash(m2m.NodeID(failNode), failRound)
		if failRound+4 > rounds {
			rounds = failRound + 4
		}
	}
	check(inj.Validate())
	cfg := m2m.ResilientConfig{}
	if eager {
		// Any nonzero smoothed collision rate crosses this, so the session
		// schedules right after the first contended round.
		cfg.TDMASwitchThreshold = 1e-9
	}
	s, err := m2m.NewResilientSession(net, specs, kind, gen, inj, cfg)
	check(err)
	fmt.Printf("\ncontention session (seed %d, loss %.3f, capture %.2f):\n", seed, loss, capture)
	fmt.Printf("%-6s %14s %6s %6s %7s %6s %6s %-8s %s\n",
		"round", "energy", "fresh", "stale", "starved", "coll", "rate", "mode", "events")
	scheduled := false
	for r := 0; r < rounds; r++ {
		step, err := s.Step()
		check(err)
		events := ""
		if step.TDMA && !scheduled {
			scheduled = true
			events += fmt.Sprintf(" tdma frame installed (epoch %d)", s.PlanEpoch())
		}
		for _, ev := range step.Recoveries {
			events += fmt.Sprintf(" condemned %d (epoch %d)", ev.Dead, s.PlanEpoch())
		}
		mode := "unsched"
		if step.TDMA {
			mode = "tdma"
		}
		fmt.Printf("%-6d %11.2f mJ %6d %6d %7d %6d %6.2f %-8s %s\n",
			r, step.EnergyJ*1e3, step.Fresh, step.Stale, step.Starved,
			step.Collisions, step.CollisionRate, mode, events)
	}
}

// fixedReadings replays the same per-node readings every round, matching
// the single-round algorithm comparison above.
type fixedReadings map[m2m.NodeID]float64

func (f fixedReadings) Next() map[m2m.NodeID]float64 { return f }

// runChurn drives the self-healing session under churn — transient and
// permanent crashes, revival, and a scheduled network partition — and
// prints per-round delivery quality plus recovery telemetry.
func runChurn(net *m2m.Network, specs []m2m.Spec, kind m2m.RouterKind, gen m2m.ReadingGenerator, seed int64, loss float64, failNode, failRound, reviveRound, sideSize, partRound, partLen int) {
	inj := m2m.NewFaultInjector(seed)
	if loss > 0 {
		inj.WithUniformLoss(loss)
	}
	rounds := 6
	if failNode >= 0 {
		if failNode >= net.Len() {
			fmt.Fprintf(os.Stderr, "m2msim: -fail-node %d outside the %d-node network\n", failNode, net.Len())
			os.Exit(2)
		}
		inj.Crash(m2m.NodeID(failNode), failRound)
		if failRound+4 > rounds {
			rounds = failRound + 4
		}
		if reviveRound > 0 {
			inj.Revive(m2m.NodeID(failNode), reviveRound)
			if reviveRound+3 > rounds {
				rounds = reviveRound + 3
			}
		}
	}
	if sideSize > 0 {
		if sideSize >= net.Len() {
			fmt.Fprintf(os.Stderr, "m2msim: -partition %d must leave part of the %d-node network intact\n", sideSize, net.Len())
			os.Exit(2)
		}
		side := pickSide(net, sideSize)
		inj.AddPartition(side, partRound, partLen)
		if partRound+partLen+3 > rounds {
			rounds = partRound + partLen + 3
		}
		fmt.Printf("\npartition: severing %d nodes %v for rounds %d–%d\n",
			len(side), side, partRound, partRound+partLen-1)
	}
	check(inj.Validate())
	s, err := m2m.NewResilientSession(net, specs, kind, gen, inj, m2m.ResilientConfig{})
	check(err)
	fmt.Printf("\nchurn session (seed %d, loss %.3f):\n", seed, loss)
	fmt.Printf("%-6s %14s %6s %6s %7s %5s %5s %5s %6s  %s\n",
		"round", "energy", "fresh", "stale", "starved", "dead", "quar", "lag", "e-drop", "events")
	for r := 0; r < rounds; r++ {
		step, err := s.Step()
		check(err)
		events := ""
		for _, ev := range step.Recoveries {
			events += fmt.Sprintf(" condemned %d (epoch %d)", ev.Dead, s.PlanEpoch())
		}
		for _, n := range step.Rejoins {
			events += fmt.Sprintf(" rejoined %d (epoch %d)", n, s.PlanEpoch())
		}
		fmt.Printf("%-6d %11.2f mJ %6d %6d %7d %5d %5d %5d %6d %s\n",
			r, step.EnergyJ*1e3, step.Fresh, step.Stale, step.Starved,
			len(s.DeadNodes()), step.Quarantined, step.EpochLag, step.EpochDropped, events)
	}
}

// runBattery drives the battery-aware session: every node starts with the
// given capacity, the executors debit actual per-node spend each round,
// and (with -evac-horizon) the session evacuates traffic off relays
// forecast to die. The run continues a few rounds past the first
// exhaustion so its fallout is visible.
func runBattery(net *m2m.Network, specs []m2m.Spec, kind m2m.RouterKind, gen m2m.ReadingGenerator, seed int64, loss, capacityJ float64, horizon int) {
	bat, err := m2m.NewBattery(net.Len(), capacityJ)
	check(err)
	var faults m2m.FaultSchedule
	if loss > 0 {
		inj := m2m.NewFaultInjector(seed)
		inj.WithUniformLoss(loss)
		check(inj.Validate())
		faults = inj
	}
	s, err := m2m.NewResilientSession(net, specs, kind, gen, faults, m2m.ResilientConfig{
		Battery:               bat,
		EvacuateHorizonRounds: horizon,
	})
	check(err)
	fmt.Printf("\nbattery session (seed %d, loss %.3f, %.3g J/node, evac horizon %d):\n",
		seed, loss, capacityJ, horizon)
	fmt.Printf("%-6s %14s %6s %6s %7s %5s %12s  %s\n",
		"round", "energy", "fresh", "stale", "starved", "dead", "min residual", "events")
	const maxRounds = 500
	stopAt := -1
	for r := 0; r < maxRounds; r++ {
		step, err := s.Step()
		check(err)
		events := ""
		if step.Evacuations > 0 {
			events += fmt.Sprintf(" evacuated %v (epoch %d)", s.EvacuatedNodes(), s.PlanEpoch())
		}
		for _, n := range step.Depleted {
			events += fmt.Sprintf(" depleted %d", n)
		}
		for _, ev := range step.Recoveries {
			events += fmt.Sprintf(" condemned %d (epoch %d)", ev.Dead, s.PlanEpoch())
		}
		if events != "" || r < 3 || stopAt >= 0 {
			fmt.Printf("%-6d %11.2f mJ %6d %6d %7d %5d %9.2f mJ %s\n",
				r, step.EnergyJ*1e3, step.Fresh, step.Stale, step.Starved,
				len(s.DeadNodes()), step.MinResidualJ*1e3, events)
		}
		if stopAt < 0 && len(step.Depleted) > 0 {
			stopAt = r + 3
		}
		if stopAt >= 0 && r >= stopAt {
			break
		}
	}
	if first := bat.FirstDeathRound(); first >= 0 {
		fmt.Printf("first battery death: round %d (nodes %v)\n", first, bat.DepletedNodes())
	} else {
		fmt.Printf("no battery death within %d rounds\n", maxRounds)
	}
}

// runByzantine drives the outlier-quarantine session against one lying
// node: the injector corrupts the node's own reading at the
// pre-aggregation boundary throughout its window, the session's residual
// test flags it, excises its aggregates after a persistence window (with
// an epoch-fenced incremental replan), and re-admits it once the window
// ends and it shows a sustained clean run. Per-round suspect and excision
// telemetry is reported alongside delivery quality.
func runByzantine(net *m2m.Network, specs []m2m.Spec, kind m2m.RouterKind, gen m2m.ReadingGenerator, seed int64, loss float64, failNode, failRound, byzNode int, modeName string, param float64, byzRound, byzLen int) {
	if byzNode >= net.Len() {
		fmt.Fprintf(os.Stderr, "m2msim: -byzantine %d outside the %d-node network\n", byzNode, net.Len())
		os.Exit(2)
	}
	monitored := false
	for _, sp := range specs {
		for _, src := range sp.Func.Sources() {
			if src == m2m.NodeID(byzNode) {
				monitored = true
			}
		}
	}
	if !monitored {
		fmt.Printf("\nnote: node %d is not a source of any aggregate; its lies never enter a reading and the quarantine loop will not observe it\n", byzNode)
	}
	mode, err := m2m.ParseByzMode(modeName)
	check(err)
	inj := m2m.NewFaultInjector(seed)
	if loss > 0 {
		inj.WithUniformLoss(loss)
	}
	if failNode >= 0 {
		if failNode >= net.Len() {
			fmt.Fprintf(os.Stderr, "m2msim: -fail-node %d outside the %d-node network\n", failNode, net.Len())
			os.Exit(2)
		}
		inj.Crash(m2m.NodeID(failNode), failRound)
	}
	// Default quarantine tuning: suspects excised after 3 consecutive
	// bad rounds, re-admitted after 8 clean ones. Watch long enough to
	// see the excision — and, for a finite window, the re-admission.
	dur := byzLen
	rounds := byzRound + 3 + 3
	if byzLen == 0 {
		dur = m2m.Forever
	} else {
		rounds = byzRound + byzLen + 8 + 2
	}
	inj.WithByzantine(m2m.NodeID(byzNode), mode, param, byzRound, dur)
	check(inj.Validate())
	s, err := m2m.NewResilientSession(net, specs, kind, gen, inj, m2m.ResilientConfig{Byzantine: true})
	check(err)
	window := "forever"
	if byzLen > 0 {
		window = fmt.Sprintf("for %d rounds", byzLen)
	}
	fmt.Printf("\nbyzantine session (seed %d, loss %.3f; node %d lies %s %.4g from round %d %s):\n",
		seed, loss, byzNode, modeName, param, byzRound, window)
	fmt.Printf("%-6s %14s %6s %6s %7s %8s %7s  %s\n",
		"round", "energy", "fresh", "stale", "starved", "suspect", "excised", "events")
	for r := 0; r < rounds; r++ {
		step, err := s.Step()
		check(err)
		events := ""
		for _, ev := range step.Excisions {
			events += fmt.Sprintf(" excised %d (residual %.1f, replan %d B, epoch %d)", ev.Node, ev.Residual, ev.ReplanBytes, s.PlanEpoch())
		}
		for _, n := range step.Readmissions {
			events += fmt.Sprintf(" readmitted %d (epoch %d)", n, s.PlanEpoch())
		}
		for _, ev := range step.Recoveries {
			events += fmt.Sprintf(" condemned %d (epoch %d)", ev.Dead, s.PlanEpoch())
		}
		fmt.Printf("%-6d %11.2f mJ %6d %6d %7d %8d %7d %s\n",
			r, step.EnergyJ*1e3, step.Fresh, step.Stale, step.Starved,
			len(step.Suspects), len(s.ExcisedNodes()), events)
	}
	for _, ev := range s.Excisions() {
		if ev.ReadmittedRound >= 0 {
			fmt.Printf("excision: node %d at round %d, re-admitted at round %d\n", ev.Node, ev.Round, ev.ReadmittedRound)
		} else {
			fmt.Printf("excision: node %d at round %d, still quarantined\n", ev.Node, ev.Round)
		}
	}
}

// pickSide grows a connected side for -partition, preferring one that
// leaves node 0 (the dissemination base) on the main side.
func pickSide(net *m2m.Network, size int) []m2m.NodeID {
	for s := 1; s < net.Len(); s++ {
		side, err := chaos.GrowSide(net.Graph, m2m.NodeID(s), size)
		if err != nil {
			continue
		}
		keep := true
		for _, n := range side {
			if n == 0 {
				keep = false
				break
			}
		}
		if keep {
			return side
		}
	}
	fmt.Fprintf(os.Stderr, "m2msim: no connected side of %d nodes excludes node 0\n", size)
	os.Exit(2)
	return nil
}

func countReports(reports map[m2m.NodeID]*sim.DeliveryReport) (fresh, stale, starved int) {
	for _, rep := range reports {
		switch {
		case rep.Starved:
			starved++
		case rep.Fresh:
			fresh++
		default:
			stale++
		}
	}
	return
}

func printValues(vals map[m2m.NodeID]float64) {
	ids := make([]m2m.NodeID, 0, len(vals))
	for d := range vals {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println("destination values:")
	for _, d := range ids {
		fmt.Printf("  node %3d: %.4f\n", d, vals[d])
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "m2msim:", err)
		os.Exit(1)
	}
}

// runScenario replays a generated fuzz scenario end to end: it prints
// the scenario's composition, steps the resilient session it describes,
// and reports the invariant checker verdict — the one-command repro for
// anything m2mfuzz finds.
func runScenario(seed int64) int {
	sc, err := m2m.GenerateScenario(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m2msim: generating scenario %d: %v\n", seed, err)
		return 2
	}
	fmt.Printf("scenario %s\n", sc.String())
	run, err := m2m.NewScenarioRun(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m2msim: building scenario run: %v\n", err)
		return 2
	}
	for i := 0; i < sc.Rounds; i++ {
		step, err := run.Step()
		if err != nil {
			fmt.Printf("round %2d: session stopped: %v\n", i, err)
			break
		}
		line := fmt.Sprintf("round %2d: fresh=%d stale=%d starved=%d energy=%.3gJ",
			step.Round, step.Fresh, step.Stale, step.Starved, step.EnergyJ)
		if len(step.Recoveries) > 0 {
			line += fmt.Sprintf(" recoveries=%d", len(step.Recoveries))
		}
		if len(step.Rejoins) > 0 {
			line += fmt.Sprintf(" rejoins=%v", step.Rejoins)
		}
		if step.Quarantined > 0 {
			line += fmt.Sprintf(" quarantined=%d", step.Quarantined)
		}
		if len(step.Depleted) > 0 {
			line += fmt.Sprintf(" depleted=%v", step.Depleted)
		}
		if len(step.Excisions) > 0 {
			line += fmt.Sprintf(" excisions=%d", len(step.Excisions))
		}
		if step.Collisions > 0 {
			line += fmt.Sprintf(" collisions=%d", step.Collisions)
		}
		if step.TDMA {
			line += " tdma"
		}
		fmt.Println(line)
	}
	rep := invariant.Check(sc)
	fmt.Println(rep.String())
	if rep.Failed() {
		return 1
	}
	return 0
}
