package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"aquago"
)

// spec is the part of BENCHMARK.json the self-tests check against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// runCLI runs the command line in-process and returns the exit code,
// the parsed last line and the whole standard output.
func runCLI(t *testing.T, args ...string) (int, summary, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%v: last line %q is not the summary (stderr %q): %v", args, lines[len(lines)-1], stderr.String(), err)
	}
	return code, sum, stdout.String()
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// A tiny run of each workload emits every end-to-end metric with its
// unit, and a tiny traced run every per-layer metric.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloadNames() {
		code, sum, _ := runCLI(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0")
		if code != 0 || !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
			t.Fatalf("%s: exit %d, summary %+v", w, code, sum)
		}
		checkMetrics(t, w, sum.Metrics, s.EndToEnd)
		for name, m := range sum.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
	code, sum, _ := runCLI(t, "--workload", "sos-beacon", "--seed", "3", "--seconds", "1", "--trace", "1")
	if code != 0 || !sum.Correct {
		t.Fatalf("traced: exit %d, summary %+v", code, sum)
	}
	checkMetrics(t, "traced sos-beacon", sum.Metrics, s.PerLayer)
}

// Runs of one seed print one outcome digest, traced or not; another
// seed prints another.
func TestDigestIsSeedDeterministic(t *testing.T) {
	digest := func(seed int64, tr *tracer) string {
		rep, err := runDiveChat(runConfig{seed: seed, units: 1, tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("seed %d: %v", seed, rep.failures)
		}
		return rep.digest()
	}
	a, b, c := digest(5, nil), digest(5, newTracer()), digest(6, nil)
	if a != b {
		t.Errorf("seed 5 digests differ untraced and traced: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 share digest %s", a)
	}
}

// corruptingMedium flips the sign of received samples at random, which
// destroys the coherent signal without touching the program.
type corruptingMedium struct {
	inner aquago.Medium
	rng   *rand.Rand
}

func (c corruptingMedium) flip(rx []float64) []float64 {
	for i := range rx {
		if c.rng.Intn(2) == 0 {
			rx[i] = -rx[i]
		}
	}
	return rx
}

func (c corruptingMedium) Forward(tx []float64, atS float64) []float64 {
	return c.flip(c.inner.Forward(tx, atS))
}

func (c corruptingMedium) Backward(tx []float64, atS float64) []float64 {
	return c.flip(c.inner.Backward(tx, atS))
}

// Corrupted water makes operations undelivered: the run still
// completes, reports no correctness failure it did not see, and counts
// the losses instead of passing them.
func TestCorruptingMediumCountsUndelivered(t *testing.T) {
	wrap := func(m aquago.Medium) aquago.Medium {
		return corruptingMedium{inner: m, rng: rand.New(rand.NewSource(1))}
	}
	for _, w := range []string{"dive-chat", "sos-beacon"} {
		rep, err := workloads[w](runConfig{seed: 2, units: 1, wrap: wrap})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.correct() {
			t.Errorf("%s: correctness failures on corrupted water: %v", w, rep.failures)
		}
		if got := rep.e2e["delivery_ratio"].Value; got > 0.2 {
			t.Errorf("%s: delivery ratio %v on corrupted water, want near 0", w, got)
		}
	}
}

// A payload reported delivered with the wrong bytes is a correctness
// failure, and a run with one reports no numbers.
func TestWrongDeliveredPayloadFailsRun(t *testing.T) {
	want := [2]byte{7, aquago.NoMessage}
	var res aquago.SendResult
	res.Delivered = true
	res.Last.Delivered = true
	res.Last.Decoded = [2]byte{7, 8}
	if msg := checkSend(res, nil, want); msg == "" {
		t.Fatal("wrong delivered payload passed the check")
	}
	res.Last.Decoded = want
	if msg := checkSend(res, nil, want); msg != "" {
		t.Fatalf("right payload failed the check: %s", msg)
	}

	broken := func(cfg runConfig) (*report, error) {
		rep, err := runSOSBeacon(cfg)
		if err == nil {
			rep.fail("injected failure")
		}
		return rep, err
	}
	var out bytes.Buffer
	sum, err := endToEnd(broken, runConfig{seed: 1, units: 1}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Correct || sum.Failed != 1 || len(sum.Metrics) != 0 {
		t.Errorf("failed run summarized as %+v", sum)
	}
	if !strings.Contains(out.String(), "FAILED CHECK: injected failure") {
		t.Errorf("failure not printed:\n%s", out.String())
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "harbor", "--seconds", "0"},
		{"--workload", "harbor", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
