package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"aquago"
	"aquago/internal/adapt"
	"aquago/internal/channel"
	"aquago/internal/dsp"
	"aquago/internal/fec"
	"aquago/internal/modem"
)

// The kernel ledger times single calls into the hot-path kernels on
// fixed-size inputs derived from the seed. Each entry warms up once,
// then reports the median of ledgerCalls timed calls. Inputs that a
// cache could serve (the equalizer's Levinson solve cache) differ on
// every call, so the ledger times the computation, not a cache hit.

const ledgerCalls = 25

// timeCalls runs f(i) for i in [0, ledgerCalls] — call 0 is the
// warm-up — and returns the median wall time of the timed calls.
func timeCalls(f func(i int)) time.Duration {
	f(0)
	ds := make([]float64, ledgerCalls)
	for i := range ds {
		t0 := time.Now()
		f(i + 1)
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return time.Duration(median(ds))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func randReal(rng *rand.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = scale * rng.NormFloat64()
	}
	return out
}

// kernelLedger returns the ledger's per-layer metrics.
func kernelLedger(seed int64) map[string]metric {
	out := map[string]metric{}
	rng := rand.New(rand.NewSource(seed*31337 + 11))
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: kernel ledger: "+format+"\n", args...)
	}

	for _, n := range []int{960, 4800} {
		p := dsp.NewPlan(n)
		ins := make([][]complex128, ledgerCalls+1)
		for i := range ins {
			ins[i] = make([]complex128, n)
			for k := range ins[i] {
				ins[i][k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		dst := make([]complex128, n)
		out[fmt.Sprintf("dsp.fft%d_us", n)] = metric{us(timeCalls(func(i int) { p.Forward(dst, ins[i]) })), "us"}
	}

	oa := dsp.NewOverlapAdd(randReal(rng, 480, 0.1))
	second := randReal(rng, 48000, 0.3)
	out["dsp.overlap_add_ms"] = metric{ms(timeCalls(func(int) { oa.Apply(second) })), "ms"}

	m, err := modem.New(modem.DefaultConfig())
	if err != nil {
		fail("modem.New: %v", err)
		return out
	}
	out["modem.new_ms"] = metric{ms(timeCalls(func(int) {
		if _, err := modem.New(modem.DefaultConfig()); err != nil {
			fail("modem.New: %v", err)
		}
	})), "ms"}

	det := modem.NewDetector(m)
	audio := randReal(rng, 48000, 0.3)
	dsp.AddAt(audio, m.Preamble(), 20000)
	out["modem.detect_1s_ms"] = metric{ms(timeCalls(func(int) {
		if _, ok := det.Detect(audio); !ok {
			fail("preamble missed")
		}
	})), "ms"}

	ref, err := m.TrainingSymbol(modem.FullBand(m.Config()))
	if err != nil {
		fail("TrainingSymbol: %v", err)
		return out
	}
	taps := make([]float64, 100)
	taps[0], taps[60] = 1, 0.4
	clean := dsp.Convolve(ref, taps)[:len(ref)]
	rxs := make([][]float64, ledgerCalls+1)
	for i := range rxs {
		rxs[i] = append([]float64(nil), clean...)
		dsp.Add(rxs[i], randReal(rng, len(clean), 0.01))
	}
	hits0, misses0 := modem.EqualizerCacheStats()
	out["modem.train_eq480_us"] = metric{us(timeCalls(func(i int) {
		if _, err := m.TrainEqualizer(rxs[i], ref, 480, -1); err != nil {
			fail("TrainEqualizer: %v", err)
		}
	})), "us"}
	if hits, _ := modem.EqualizerCacheStats(); hits != hits0 {
		_, misses := modem.EqualizerCacheStats()
		fail("equalizer ledger served %d cache hits (%d misses): its inputs are not distinct", hits-hits0, misses-misses0)
	}

	codec := fec.NewCodec(fec.Rate23, fec.TailBiting)
	softs := make([][]float64, ledgerCalls+1)
	for i := range softs {
		bits := make([]int, 16)
		for k := range bits {
			bits[k] = rng.Intn(2)
		}
		coded := codec.Encode(bits)
		softs[i] = make([]float64, len(coded))
		for k, b := range coded {
			softs[i][k] = float64(2*b-1) + 0.4*rng.NormFloat64()
		}
	}
	out["fec.viterbi24_us"] = metric{us(timeCalls(func(i int) {
		if _, err := codec.DecodeSoft(softs[i], 16); err != nil {
			fail("DecodeSoft: %v", err)
		}
	})), "us"}

	fb := adapt.NewFeedback(m)
	sym, err := fb.Encode(modem.Band{Lo: 7, Hi: 43})
	if err != nil {
		fail("feedback encode: %v", err)
		return out
	}
	fbRx := make([]float64, len(sym)+2000)
	dsp.AddAt(fbRx, sym, 500)
	n := m.Config().N()
	out["adapt.feedback_decode_us"] = metric{us(timeCalls(func(int) {
		if _, ok := fb.Decode(fbRx, n, 8); !ok {
			fail("feedback decode failed")
		}
	})), "us"}

	gen := channel.NewNoiseGen(aquago.Lake, 48000, seed)
	out["channel.noise_ms_per_audio_s"] = metric{ms(timeCalls(func(int) { gen.Generate(48000) })), "ms/s"}
	return out
}
