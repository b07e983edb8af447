package modem

import (
	"errors"
	"fmt"

	"aquago/internal/dsp"
)

// DefaultEqualizerTaps is the paper's time-domain equalizer length
// ("channel length L of 480 samples") at 50 Hz spacing; other
// spacings scale proportionally to the symbol length.
const DefaultEqualizerTaps = 480

// Equalizer is a time-domain MMSE FIR equalizer estimated from the
// known training symbol. Applying it to received samples shortens the
// effective channel so the short cyclic prefix (6.9 % of a symbol)
// suffices despite long underwater delay spreads.
type Equalizer struct {
	// Taps are the FIR coefficients g.
	Taps []float64
	// Delay is the decision delay d: output sample n estimates the
	// transmitted sample n-d. Consumers must shift by Delay when
	// aligning equalized output.
	Delay int
}

// EqualizerTaps returns the equalizer length for this modem's
// numerology (480 at 50 Hz spacing, scaled with symbol length).
func (m *Modem) EqualizerTaps() int {
	return DefaultEqualizerTaps * m.cfg.N() / 960
}

// TrainEqualizer estimates MMSE equalizer taps from one received
// training symbol. rx must start with the received training waveform
// aligned to ref (the known transmitted training symbol, body plus
// cyclic prefix); any samples of rx beyond len(ref) — i.e. the data
// symbols that follow — are used to improve the autocorrelation
// estimate, which is legitimate because the data symbols occupy the
// same band through the same channel. nTaps <= 0 selects
// EqualizerTaps(); delay < 0 selects nTaps/8.
//
// The estimator solves the Wiener-Hopf normal equations
//
//	R_yy g = r_yx(delay)
//
// with R_yy the received autocorrelation (symmetric Toeplitz, solved
// by Levinson in O(n^2)) and r_yx the cross-correlation against the
// delayed reference. Diagonal loading regularizes the system; if
// Levinson still rejects it the loading is increased geometrically.
func (m *Modem) TrainEqualizer(rx, ref []float64, nTaps, delay int) (*Equalizer, error) {
	if len(rx) < len(ref) {
		return nil, fmt.Errorf("modem: train equalizer rx %d shorter than ref %d", len(rx), len(ref))
	}
	if nTaps <= 0 {
		nTaps = m.EqualizerTaps()
	}
	if len(ref) < nTaps {
		return nil, fmt.Errorf("modem: training of %d samples shorter than %d taps", len(ref), nTaps)
	}
	if delay < 0 {
		delay = nTaps / 8
	}
	// Autocorrelation over everything available (training + data).
	r := dsp.AutoCorrelation(rx, nTaps-1)
	// Cross-correlation against the known training only:
	// p[j] = mean_n ref[n-delay] * rx[n-j].
	p := make([]float64, nTaps)
	for j := 0; j < nTaps; j++ {
		var acc float64
		for i := 0; i < len(ref); i++ {
			n := i + delay // rx sample index aligned with ref[i]
			if n-j < 0 || n-j >= len(rx) {
				continue
			}
			acc += ref[i] * rx[n-j]
		}
		p[j] = acc / float64(len(ref))
	}
	// Diagonal loading sweep.
	base := r[0]
	if base <= 0 {
		return nil, errors.New("modem: training signal has no energy")
	}
	for _, loading := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		reg := append([]float64(nil), r...)
		reg[0] = base * (1 + loading)
		g, err := dsp.SolveSymmetricToeplitz(reg, p)
		if err == nil {
			return &Equalizer{Taps: g, Delay: delay}, nil
		}
	}
	return nil, ErrEqualizerSingular
}

// EqualizerCacheStats always reports (0, 0).
//
// Deprecated: TrainEqualizer no longer caches its Levinson solve.
// Every exchange trains on fresh receive samples, so the cache almost
// never hit. The function remains so that callers reporting a hit
// ratio from it still build.
func EqualizerCacheStats() (hits, misses uint64) {
	return 0, 0
}

// ErrEqualizerSingular reports that equalizer training failed even
// with maximum regularization.
var ErrEqualizerSingular = errors.New("modem: equalizer training system singular")

// Apply filters x with the equalizer and compensates the decision
// delay: output k estimates the transmitted sample at x's index k.
// The result has the same length as x (tail samples beyond the
// available input are zero).
func (eq *Equalizer) Apply(x []float64) []float64 {
	full := dsp.Convolve(x, eq.Taps)
	out := make([]float64, len(x))
	for i := range out {
		j := i + eq.Delay
		if j < len(full) {
			out[i] = full[j]
		}
	}
	return out
}

// Identity returns a pass-through equalizer (single unit tap). Used
// by ablation benchmarks that disable equalization.
func Identity() *Equalizer {
	return &Equalizer{Taps: []float64{1}, Delay: 0}
}
