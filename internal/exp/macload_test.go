package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"aquago"
)

// tinyMacLoadSweep is the golden regression workload: small enough to
// run repeatedly under -race, wide enough to cross every moving part —
// both contention modes, two carrier-sense variants, an overload
// point, and a multi-pod spatial-reuse case whose pods overlap on the
// virtual timeline.
func tinyMacLoadSweep() macLoadSweep {
	return macLoadSweep{
		envNodes:   []int{4},
		waveNodes:  []int{3},
		utils:      []float64{0.4, 1.3},
		variants:   []int{0, 1},
		targetMsgs: 6,
		reusePods:  []int{2},
		reuseUtil:  0.5,
	}
}

// TestMacLoadGoldenSeedsWorkers extends the PR 3 seeds×workers pattern
// to the goodput harness: for fixed seeds, the full report — goodput,
// latency and collision tables in both contention modes — must be
// deeply equal whether the measurement points run serially
// (Workers: 1) or fan out across the experiment pool (Workers: 4).
// Inside each point the live Network also runs with its default
// all-cores conflict-graph scheduler, so the test additionally pins
// that network-level concurrency never leaks into results.
func TestMacLoadGoldenSeedsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny sweep several times")
	}
	for _, seed := range []int64{3, 11} {
		serial, err := macLoadReport(RunConfig{Seed: seed, Quick: true, Workers: 1}, tinyMacLoadSweep())
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		parallel, err := macLoadReport(RunConfig{Seed: seed, Quick: true, Workers: 4}, tinyMacLoadSweep())
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: Workers:1 and Workers:4 reports differ\nserial:   %+v\nparallel: %+v",
				seed, serial, parallel)
		}
		// The tables must not be vacuous: goodput present in both modes.
		var envSeen, waveSeen bool
		for _, s := range serial.Series {
			if !strings.HasPrefix(s.Name, "goodput ") {
				continue
			}
			if len(s.X) == 0 {
				t.Fatalf("seed %d: empty goodput series %q", seed, s.Name)
			}
			if strings.Contains(s.Name, "envelope") {
				envSeen = true
			}
			if strings.Contains(s.Name, "waveform") {
				waveSeen = true
			}
		}
		if !envSeen || !waveSeen {
			t.Fatalf("seed %d: goodput series missing a contention mode (envelope %v, waveform %v)",
				seed, envSeen, waveSeen)
		}
	}
}

// TestMacLoadPoissonProperties is the offered-load generator's
// property suite: for any seed, the offered bits total equals the sum
// over nodes of what each node generated (the merge drops and invents
// nothing), arrivals are in-window and strictly increasing, the draw
// is deterministic per seed, and the empirical inter-arrival mean
// reproduces the configured Poisson rate within tolerance.
func TestMacLoadPoissonProperties(t *testing.T) {
	const (
		nodes = 7
		rate  = 2.0
		dur   = 400.0
	)
	for _, seed := range []int64{1, 2, 19, 104729} {
		perNode := poissonArrivals(nodes, rate, dur, seed)
		merged := mergeArrivals(perNode)

		perNodeBits := 0
		for n, times := range perNode {
			perNodeBits += len(times) * messageBits
			last := -1.0
			for _, at := range times {
				if at < 0 || at >= dur {
					t.Fatalf("seed %d node %d: arrival %g outside [0, %g)", seed, n, at, dur)
				}
				if at <= last {
					t.Fatalf("seed %d node %d: arrivals not strictly increasing (%g after %g)", seed, n, at, last)
				}
				last = at
			}
		}
		if total := len(merged) * messageBits; total != perNodeBits {
			t.Fatalf("seed %d: merged schedule offers %d bits, per-node streams generated %d", seed, total, perNodeBits)
		}
		if got := offeredBits(perNode); got != perNodeBits {
			t.Fatalf("seed %d: offeredBits %d != per-node sum %d", seed, got, perNodeBits)
		}
		for i := 1; i < len(merged); i++ {
			a, b := merged[i-1], merged[i]
			if b.atS < a.atS || (b.atS == a.atS && b.node <= a.node) {
				t.Fatalf("seed %d: merge not (time, node)-ordered at %d: %+v then %+v", seed, i, a, b)
			}
		}

		// Empirical rate: pooled inter-arrival gaps (including each
		// node's gap from 0) must average 1/rate. With ~nodes*rate*dur
		// samples the relative standard error is ~1/sqrt(5600) ≈ 1.3%,
		// so 6% is a > 4-sigma allowance.
		var gapSum float64
		var gaps int
		for _, times := range perNode {
			prev := 0.0
			for _, at := range times {
				gapSum += at - prev
				prev = at
				gaps++
			}
		}
		mean := gapSum / float64(gaps)
		if want := 1 / rate; math.Abs(mean-want) > 0.06*want {
			t.Fatalf("seed %d: mean inter-arrival %g s, want %g ± 6%%", seed, mean, want)
		}

		if again := poissonArrivals(nodes, rate, dur, seed); !reflect.DeepEqual(perNode, again) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
	}
	a := poissonArrivals(nodes, rate, dur, 5)
	b := poissonArrivals(nodes, rate, dur, 6)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical arrival streams")
	}
}

// TestMacLoadPointValidate walks the rejection paths surfaced by the
// CLIs (aquanet -load, aquabench -macload flags funnel into the same
// config type).
func TestMacLoadPointValidate(t *testing.T) {
	good := MacLoadPoint{
		Pods: 1, PodSize: 5, RateHz: 0.1, DurationS: 60,
		Mode: aquago.EnvelopeContention,
	}
	cases := []struct {
		name    string
		mutate  func(*MacLoadPoint)
		wantErr string
	}{
		{"valid", func(*MacLoadPoint) {}, ""},
		{"max nodes", func(p *MacLoadPoint) { p.PodSize = 60; p.RateHz = 0.01 }, ""},
		{"zero pods", func(p *MacLoadPoint) { p.Pods = 0 }, "at least one pod"},
		{"one-node pod", func(p *MacLoadPoint) { p.PodSize = 1 }, "at least 2 nodes"},
		{"over 60 nodes", func(p *MacLoadPoint) { p.PodSize = 61 }, "60-device network limit"},
		{"over 60 across pods", func(p *MacLoadPoint) { p.Pods = 7; p.PodSize = 9 }, "60-device network limit"},
		{"NaN rate", func(p *MacLoadPoint) { p.RateHz = math.NaN() }, "not a finite number"},
		{"infinite rate", func(p *MacLoadPoint) { p.RateHz = math.Inf(1) }, "not a finite number"},
		{"negative rate", func(p *MacLoadPoint) { p.RateHz = -0.5 }, "must be positive"},
		{"zero rate", func(p *MacLoadPoint) { p.RateHz = 0 }, "must be positive"},
		{"NaN duration", func(p *MacLoadPoint) { p.DurationS = math.NaN() }, "not a finite time"},
		{"negative duration", func(p *MacLoadPoint) { p.DurationS = -1 }, "must be positive"},
		{"zero duration", func(p *MacLoadPoint) { p.DurationS = 0 }, "must be positive"},
		{"schedule blow-up", func(p *MacLoadPoint) { p.RateHz = 1000; p.DurationS = 1e5 }, "cap"},
		{"bad mode", func(p *MacLoadPoint) { p.Mode = aquago.ContentionMode(9) }, "unknown contention mode"},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		err := p.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: error expected, got nil", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// loadPin is one load point's deterministic outcome, floats as bits.
type loadPin struct {
	delivered, offered        int
	goodputBits, makespanBits uint64
	granted, committed        int
	airtimeBits               uint64
}

func pinOf(delivered, offered int, goodput, makespan float64, sched aquago.SchedulerStats) loadPin {
	return loadPin{
		delivered: delivered, offered: offered,
		goodputBits: math.Float64bits(goodput), makespanBits: math.Float64bits(makespan),
		granted: sched.Granted, committed: sched.Committed,
		airtimeBits: math.Float64bits(sched.AirtimeS),
	}
}

// TestMacLoadPodsMatchRecordedResults pins the blocking driver's
// outcome for 1, 2 and 3 isolated pods of three at seed 7, bit for
// bit, to values recorded when the driver still batched
// non-interfering sends onto concurrent goroutines. Any drift in the
// driver, the scheduler or the exchange shows here first.
func TestMacLoadPodsMatchRecordedResults(t *testing.T) {
	want := map[int]loadPin{
		// 9/9 delivered, makespan 12 s, airtime 3.366 s.
		1: {9, 9, 0x4028000000000000, 0x4028000000000000, 9, 9, 0x400aeccccccccccd},
		// 16/16 delivered, makespan 12 s, airtime 6.593 s.
		2: {16, 16, 0x4035555555555555, 0x4028000000000000, 17, 17, 0x401a5ede8ca11bfd},
		// 26/26 delivered at 27.91 bps, makespan 14.905 s.
		3: {26, 26, 0x403be8d70d6cf0b4, 0x402dcf83c4a9968f, 27, 27, 0x4024aa19f0fb38a7},
	}
	for pods := 1; pods <= 3; pods++ {
		res, err := RunMacLoadPoint(MacLoadPoint{
			Pods: pods, PodSize: 3,
			RateHz:       0.3,
			DurationS:    12,
			Mode:         aquago.EnvelopeContention,
			CarrierSense: true,
			CSRangeM:     40,
			Seed:         7,
			Retries:      -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := pinOf(res.DeliveredMsgs, res.OfferedMsgs, res.GoodputBPS, res.MakespanS, res.Sched)
		if got != want[pods] {
			t.Errorf("%d pods: got %+v, want %+v\n%+v", pods, got, want[pods], res)
		}
	}
}
