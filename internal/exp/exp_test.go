package exp

import (
	"strings"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	// The per-experiment index in DESIGN.md: every figure and table
	// of the paper's evaluation must have a registered harness, plus
	// the beyond-the-paper studies (MAC goodput, capture-effect SIR).
	want := []string{
		"fig03a", "fig03b", "fig03cd", "fig04", "fig08", "fig09",
		"fig10", "fig11", "fig12", "fig12d", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19",
		"tab-preamble", "tab-runtime",
		"abl-waterfill", "abl-macpreamble", "abl-softdecision",
		"macload", "macsir", "multihop", "scale", "image", "mobility",
	}
	have := IDs()
	if len(have) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(have), len(want), have)
	}
	haveSet := map[string]bool{}
	for _, id := range have {
		haveSet[id] = true
	}
	for _, id := range want {
		if !haveSet[id] {
			t.Fatalf("experiment %s missing from registry (%v)", id, have)
		}
	}
}

func TestLookupAndRunUnknown(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("unknown experiment found")
	}
	if _, err := Run("fig99", RunConfig{}); err == nil {
		t.Fatal("Run of unknown experiment should error")
	}
}

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}.withDefaults()
	if c.Packets != 100 || c.Seed != 1 {
		t.Fatalf("defaults %+v", c)
	}
	q := RunConfig{Quick: true}.withDefaults()
	if q.Packets >= c.Packets {
		t.Fatal("quick mode should reduce packets")
	}
}

// TestEveryHarnessProducesARenderableReport quick-runs each harness
// and checks basic report invariants. This is the integration test
// that keeps all nineteen reproduction paths compiling AND running.
func TestEveryHarnessProducesARenderableReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment harness")
	}
	// The heaviest harnesses get their own subtest timeouts via quick
	// mode; all must succeed.
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, RunConfig{Quick: true, Packets: 8, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Fatalf("report ID %q, want %q", rep.ID, id)
			}
			if rep.Title == "" {
				t.Fatal("empty title")
			}
			if len(rep.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range rep.Series {
				if len(s.X) != len(s.Y) {
					t.Fatalf("series %q: len(X)=%d len(Y)=%d", s.Name, len(s.X), len(s.Y))
				}
			}
			var sb strings.Builder
			rep.Render(&sb)
			out := sb.String()
			if !strings.Contains(out, id) || !strings.Contains(out, rep.Title) {
				t.Fatal("render missing header")
			}
		})
	}
}

func TestCDFSeries(t *testing.T) {
	s := cdfSeries("x", "v", []float64{3, 1, 2})
	if len(s.X) != 3 || s.X[0] != 1 || s.X[2] != 3 {
		t.Fatalf("cdf X %v", s.X)
	}
	if s.Y[2] != 1 {
		t.Fatalf("cdf Y %v", s.Y)
	}
	empty := summarizeCDF("e", "v", nil)
	if len(empty.X) != 0 {
		t.Fatal("empty CDF should have no points")
	}
	sum := summarizeCDF("s", "v", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if len(sum.X) != 5 {
		t.Fatalf("summary points %d", len(sum.X))
	}
	if sum.Y[2] != 0.5 {
		t.Fatal("median quantile missing")
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %g", m)
	}
}

func TestFixedBandsMatchPaper(t *testing.T) {
	cfg := defaultModemConfig()
	bands := fixedBands(cfg)
	if len(bands) != 3 {
		t.Fatal("three baselines")
	}
	// 60, 30 and 10 subcarriers (3 kHz, 1.5 kHz, 0.5 kHz).
	if bands[0].Width() != 60 || bands[1].Width() != 30 || bands[2].Width() != 10 {
		t.Fatalf("baseline widths: %d %d %d", bands[0].Width(), bands[1].Width(), bands[2].Width())
	}
}
