package dsp

import "math"

// Goertzel evaluates the DFT of x at a single frequency (Hz) using the
// Goertzel recurrence — O(n) per tone with no FFT. The SoS beacon
// demodulator compares tone energies with this.
func Goertzel(x []float64, freqHz, sampleRate float64) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	// Exact-frequency Goertzel (not bin-quantized).
	w := 2 * math.Pi * freqHz / sampleRate
	cw := math.Cos(w)
	sw := math.Sin(w)
	coeff := 2 * cw
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1*cw - s2
	im := s1 * sw
	return complex(re, im)
}

// GoertzelPower returns |X(f)|^2 at the given frequency.
func GoertzelPower(x []float64, freqHz, sampleRate float64) float64 {
	return CAbs2(Goertzel(x, freqHz, sampleRate))
}

// TonePowers evaluates GoertzelPower for each frequency in freqs,
// reusing one pass over x per tone. Intended for small tone sets (FSK
// demodulation, ID/ACK detection).
func TonePowers(x []float64, freqs []float64, sampleRate float64) []float64 {
	out := make([]float64, len(freqs))
	for i, f := range freqs {
		out[i] = GoertzelPower(x, f, sampleRate)
	}
	return out
}

// ToneSums returns the running single-bin DFT sums of x at freqHz,
//
//	S(k) = Σ_{i<k} x[i]·e^{−j2π·freqHz·i/sampleRate},
//
// sampled at each index of at, which must be ascending and within
// [0, len(x)]. It makes one pass over x[:at[len(at)-1]]. For a < b,
// |S(b) − S(a)|² is GoertzelPower(x[a:b], freqHz, sampleRate) up to
// rounding, so the tone power of any window whose edges are in at
// costs one subtraction. Every phasor is evaluated exactly with
// math.Sincos, so the sums carry no oscillator drift, and S(k) is the
// same for every at that contains k.
func ToneSums(x []float64, freqHz, sampleRate float64, at []int) []complex128 {
	out := make([]complex128, len(at))
	w := 2 * math.Pi * freqHz / sampleRate
	var re, im float64
	i := 0
	for j, k := range at {
		for ; i < k; i++ {
			s, c := math.Sincos(w * float64(i))
			re += x[i] * c
			im -= x[i] * s
		}
		out[j] = complex(re, im)
	}
	return out
}
