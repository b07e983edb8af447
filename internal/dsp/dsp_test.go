package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestGoertzelMatchesFFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	fs := 48000.0
	n := 960
	x := randReal(n, rng)
	spec := FFTReal(x)
	for _, bin := range []int{1, 20, 40, 79, 200} {
		freq := float64(bin) * fs / float64(n)
		g := Goertzel(x, freq, fs)
		wantP := CAbs2(spec[bin])
		gotP := CAbs2(g)
		if math.Abs(gotP-wantP) > 1e-6*(wantP+1) {
			t.Errorf("bin %d: goertzel power %g, fft power %g", bin, gotP, wantP)
		}
	}
}

func TestGoertzelDetectsTone(t *testing.T) {
	fs := 48000.0
	x := Tone(2000, 0.05, fs)
	p2000 := GoertzelPower(x, 2000, fs)
	p3000 := GoertzelPower(x, 3000, fs)
	if p2000 < 100*p3000 {
		t.Fatalf("tone not concentrated: on=%g off=%g", p2000, p3000)
	}
}

func TestTonePowersOrder(t *testing.T) {
	fs := 48000.0
	x := Tone(1500, 0.02, fs)
	p := TonePowers(x, []float64{1500, 2500, 3500}, fs)
	if !(p[0] > p[1] && p[0] > p[2]) {
		t.Fatalf("tone powers not dominated by transmitted tone: %v", p)
	}
}

func TestChirpSweepsBand(t *testing.T) {
	fs := 48000.0
	c := Chirp(1000, 5000, 0.5, fs)
	if len(c) != int(0.5*fs) {
		t.Fatalf("chirp length %d", len(c))
	}
	// Instantaneous frequency early vs late: compare band powers of
	// the first and last quarter.
	q := len(c) / 4
	early := WelchPSD(c[:q], 1024, fs, Hann)
	late := WelchPSD(c[3*q:], 1024, fs, Hann)
	if early.BandPower(1000, 2200) < 10*early.BandPower(3800, 5000) {
		t.Error("early chirp segment should sit in the low band")
	}
	if late.BandPower(3800, 5000) < 10*late.BandPower(1000, 2200) {
		t.Error("late chirp segment should sit in the high band")
	}
}

func TestResampleLinearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := randReal(1000, rng)
	y := ResampleLinear(x, 1.0)
	if len(y) != len(x) {
		t.Fatalf("identity resample length %d", len(y))
	}
	if maxAbsDiff(x, y) > 1e-12 {
		t.Fatal("identity resample altered the signal")
	}
}

func TestResamplePreservesToneFrequency(t *testing.T) {
	fs := 48000.0
	x := Tone(2000, 0.1, fs)
	// Doppler factor for 2 m/s closing speed at c=1500 m/s.
	factor := 1.0 / (1 + 2.0/1500.0)
	y := ResampleLinear(x, factor)
	// Tone should now appear at 2000*(1+2/1500) ≈ 2002.7 Hz.
	want := 2000 * (1 + 2.0/1500.0)
	pWant := GoertzelPower(y[:4000], want, fs)
	pOrig := GoertzelPower(y[:4000], 2000-10, fs)
	if pWant < pOrig {
		t.Fatalf("Doppler shift not visible: shifted %g original %g", pWant, pOrig)
	}
}

func TestResampleSincBetterThanLinear(t *testing.T) {
	fs := 48000.0
	x := Tone(3900, 0.05, fs) // near the top of the modem band
	factor := 1.001
	ref := make([]float64, 0, len(x))
	// Analytic resample of a pure tone for ground truth.
	w := 2 * math.Pi * 3900 / fs
	n := int(float64(len(x)-1)*factor) + 1
	for i := 0; i < n; i++ {
		ref = append(ref, math.Sin(w*float64(i)/factor))
	}
	lin := ResampleLinear(x, factor)
	snc := ResampleSinc(x, factor, 12)
	// Ignore sinc edge effects.
	lo, hi := 100, n-100
	var errLin, errSinc float64
	for i := lo; i < hi; i++ {
		errLin += (lin[i] - ref[i]) * (lin[i] - ref[i])
		errSinc += (snc[i] - ref[i]) * (snc[i] - ref[i])
	}
	if errSinc >= errLin {
		t.Fatalf("sinc interpolation (err %g) not better than linear (err %g)", errSinc, errLin)
	}
}

func TestWelchPSDLocatesTone(t *testing.T) {
	fs := 48000.0
	x := Tone(2500, 0.5, fs)
	sp := WelchPSD(x, 2048, fs, Hann)
	peak := ArgMax(sp.Power)
	got := sp.Freqs[peak]
	if math.Abs(got-2500) > fs/2048*1.5 {
		t.Fatalf("PSD peak at %g Hz, want 2500", got)
	}
}

func TestWelchPSDBandPower(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fs := 48000.0
	// White noise: band power should scale with bandwidth.
	x := randReal(48000, rng)
	sp := WelchPSD(x, 1024, fs, Hann)
	narrow := sp.BandPower(1000, 2000)
	wide := sp.BandPower(1000, 4000)
	if wide < 2*narrow || wide > 4*narrow {
		t.Fatalf("white noise band power ratio %g, want ~3", wide/narrow)
	}
}

func TestSpectrumPowerDBPeakIsZero(t *testing.T) {
	fs := 48000.0
	x := Tone(2000, 0.2, fs)
	sp := WelchPSD(x, 1024, fs, Hann)
	db := sp.PowerDB()
	peak := ArgMax(db)
	if math.Abs(db[peak]) > 1e-9 {
		t.Fatalf("normalized peak %g dB, want 0", db[peak])
	}
}

func TestDBHelpers(t *testing.T) {
	if v := DB(100); math.Abs(v-20) > 1e-12 {
		t.Errorf("DB(100)=%g", v)
	}
	if v := AmpDB(100); math.Abs(v-40) > 1e-12 {
		t.Errorf("AmpDB(100)=%g", v)
	}
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -inf")
	}
	if v := FromDB(30); math.Abs(v-1000) > 1e-9 {
		t.Errorf("FromDB(30)=%g", v)
	}
	if v := AmpFromDB(-20); math.Abs(v-0.1) > 1e-12 {
		t.Errorf("AmpFromDB(-20)=%g", v)
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, -4, 1}
	if MaxAbs(x) != 4 {
		t.Error("MaxAbs")
	}
	if ArgMax(x) != 0 {
		t.Error("ArgMax")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil)")
	}
	if Energy(x) != 26 {
		t.Error("Energy")
	}
	if math.Abs(Power(x)-26.0/3) > 1e-12 {
		t.Error("Power")
	}
	if Power(nil) != 0 {
		t.Error("Power(nil)")
	}
	y := Normalize(append([]float64(nil), x...), 1)
	if math.Abs(MaxAbs(y)-1) > 1e-12 {
		t.Error("Normalize")
	}
	z := make([]float64, 5)
	AddAt(z, []float64{1, 1}, 4) // clipped at the end
	if z[4] != 1 {
		t.Error("AddAt clip end")
	}
	AddAt(z, []float64{1, 1}, -1) // clipped at the start
	if z[0] != 1 {
		t.Error("AddAt clip start")
	}
}

func TestMedianPercentile(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	if Median(x) != 3 {
		t.Errorf("Median=%g", Median(x))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median")
	}
	if Percentile(x, 0) != 1 || Percentile(x, 100) != 5 {
		t.Error("percentile extremes")
	}
	if p := Percentile(x, 50); p != 3 {
		t.Errorf("P50=%g", p)
	}
	// Input must not be reordered.
	if x[0] != 5 || x[1] != 1 {
		t.Error("Median/Percentile mutated input")
	}
}

func TestWindowShapes(t *testing.T) {
	for _, w := range []Window{Rectangular, Hamming, Hann, Blackman} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: wrong length", w)
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v: coefficient %d out of range: %g", w, i, v)
			}
		}
		// Symmetry.
		for i := 0; i < 32; i++ {
			if math.Abs(c[i]-c[63-i]) > 1e-12 {
				t.Fatalf("%v not symmetric", w)
			}
		}
	}
	if Hann.Coefficients(1)[0] != 1 {
		t.Error("single-sample window must be 1")
	}
	if Rectangular.String() != "rectangular" || Window(99).String() != "unknown" {
		t.Error("Window.String")
	}
}

func TestToneSumsMatchGoertzel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fs := 48000.0
	x := randReal(20000, rng)
	for _, f := range []float64{2000, 3000, 1234.5} {
		at := make([]int, 40)
		for i := range at {
			at[i] = rng.Intn(len(x) + 1)
		}
		slices.Sort(at)
		sums := ToneSums(x, f, fs, at)
		for trial := 0; trial < 200; trial++ {
			i, j := rng.Intn(len(at)), rng.Intn(len(at))
			a, b := at[min(i, j)], at[max(i, j)]
			got := CAbs2(sums[max(i, j)] - sums[min(i, j)])
			want := GoertzelPower(x[a:b], f, fs)
			if math.Abs(got-want) > 1e-9*(want+1) {
				t.Fatalf("f=%g x[%d:%d]: |S(b)-S(a)|^2 = %g, Goertzel %g", f, a, b, got, want)
			}
		}
		// A sum depends only on its index, not on which others were
		// requested with it.
		for k, idx := range at {
			if one := ToneSums(x, f, fs, []int{idx}); one[0] != sums[k] {
				t.Fatalf("f=%g: S(%d) = %v alone, %v in a batch", f, idx, one[0], sums[k])
			}
		}
	}
	if got := ToneSums(x, 2000, fs, nil); len(got) != 0 {
		t.Fatalf("no indices: got %d sums", len(got))
	}
}
