package phy

import (
	"fmt"
	"math"
	"slices"

	"aquago/internal/dsp"
)

// Beacon implements the long-range SoS messaging mode (§3): binary
// FSK with one tone per symbol, all transmit power concentrated in a
// single frequency. Slower symbol rates (50/100/200 ms symbols for
// 20/10/5 bps) integrate longer and reach past 100 m where OFDM
// cannot.
type Beacon struct {
	// SampleRate in Hz (48000).
	SampleRate int
	// BitRateBPS is one of 5, 10 or 20 in the paper.
	BitRateBPS int
	// F0 and F1 are the tone frequencies for bits 0 and 1, inside the
	// 1.5-4 kHz band the paper assigns to beacons.
	F0, F1 float64
}

// Beacon sync preamble: a fixed 8-bit pattern with good aperiodic
// autocorrelation under the two-tone alphabet.
var beaconSync = []int{1, 1, 1, 0, 0, 1, 0, 1}

// SOSIDBits is the ID payload width for SoS beacons (6-bit user ID).
const SOSIDBits = 6

// NewBeacon returns a beacon codec with the paper's defaults
// (f0 = 2 kHz, f1 = 3 kHz) at the given bit rate.
func NewBeacon(bitRate int) (*Beacon, error) {
	switch bitRate {
	case 5, 10, 20:
	default:
		return nil, fmt.Errorf("%w: %d bps not in {5, 10, 20}", ErrBadBeaconRate, bitRate)
	}
	return &Beacon{SampleRate: 48000, BitRateBPS: bitRate, F0: 2000, F1: 3000}, nil
}

// SymbolSamples returns the per-bit duration in samples
// (50/100/200 ms for 20/10/5 bps).
func (b *Beacon) SymbolSamples() int { return b.SampleRate / b.BitRateBPS }

// Encode builds the beacon waveform: sync pattern followed by the
// payload bits, one tone per bit at unit amplitude.
func (b *Beacon) Encode(bits []int) ([]float64, error) {
	for _, v := range bits {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("%w: beacon bit %d out of {0,1}", ErrBadPayload, v)
		}
	}
	all := append(append([]int{}, beaconSync...), bits...)
	n := b.SymbolSamples()
	out := make([]float64, 0, len(all)*n)
	for _, bit := range all {
		f := b.F0
		if bit == 1 {
			f = b.F1
		}
		out = append(out, dsp.ToneN(f, n, float64(b.SampleRate))...)
	}
	return out, nil
}

// EncodeID builds an SoS beacon carrying a 6-bit user ID.
func (b *Beacon) EncodeID(id DeviceID) ([]float64, error) {
	if id < 0 || int(id) >= 1<<SOSIDBits {
		return nil, fmt.Errorf("%w: SoS ID %d out of 6-bit range", ErrBadDeviceID, id)
	}
	bits := make([]int, SOSIDBits)
	for i := 0; i < SOSIDBits; i++ {
		bits[i] = int(id>>uint(SOSIDBits-1-i)) & 1
	}
	return b.Encode(bits)
}

// Decode synchronizes on the sync pattern and demodulates nBits
// payload bits from rx. It returns the bits and the detected start
// offset; ok is false when the sync pattern cannot be located. ok is
// also false when the span the sync search reads, rx[:len(rx)-nBits*n]
// with n = SymbolSamples(), holds a NaN or ±Inf sample: offsets are
// scored from running tone sums, and one non-finite sample would
// poison every sum after it.
func (b *Beacon) Decode(rx []float64, nBits int) (bits []int, offset int, ok bool) {
	n := b.SymbolSamples()
	total := (len(beaconSync) + nBits) * n
	if nBits < 0 || len(rx) < total {
		return nil, 0, false
	}
	for _, v := range rx[:len(rx)-nBits*n] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, false
		}
	}
	// Coarse sync: score the sync pattern at a grid of offsets.
	step := n / 8
	if step < 1 {
		step = 1
	}
	coarse := make([]int, 0, (len(rx)-total)/step+1)
	for off := 0; off+total <= len(rx); off += step {
		coarse = append(coarse, off)
	}
	bestOff, bestScore := -1, 0.0
	for j, score := range b.syncScores(rx, coarse) {
		if score > bestScore {
			bestScore, bestOff = score, coarse[j]
		}
	}
	if bestOff < 0 || bestScore < 0.55 {
		return nil, 0, false
	}
	// Fine sync around the coarse peak.
	fine := make([]int, 0, 2*step+1)
	for off := max(bestOff-step, 0); off <= bestOff+step && off+total <= len(rx); off++ {
		fine = append(fine, off)
	}
	fineBest, fineScore := bestOff, bestScore
	for j, score := range b.syncScores(rx, fine) {
		if score > fineScore {
			fineScore, fineBest = score, fine[j]
		}
	}
	offset = fineBest
	bits = make([]int, nBits)
	payloadStart := offset + len(beaconSync)*n
	for i := 0; i < nBits; i++ {
		seg := rx[payloadStart+i*n : payloadStart+(i+1)*n]
		bits[i] = b.demodBit(seg)
	}
	return bits, offset, true
}

// DecodeAligned demodulates nBits starting exactly after the sync
// pattern at a known offset — the BER harness path (Fig 12d), where
// alignment is known and only tone discrimination is under test.
func (b *Beacon) DecodeAligned(rx []float64, offset, nBits int) ([]int, error) {
	n := b.SymbolSamples()
	start := offset + len(beaconSync)*n
	if start+nBits*n > len(rx) {
		return nil, fmt.Errorf("%w: beacon rx shorter than %d bits", ErrShortInput, nBits)
	}
	bits := make([]int, nBits)
	for i := range bits {
		bits[i] = b.demodBit(rx[start+i*n : start+(i+1)*n])
	}
	return bits, nil
}

// syncScores measures tone contrast over the sync pattern at each
// candidate offset in offs (ascending, each with room for the pattern
// in rx): mean of (P_expected - P_other)/(P_expected + P_other) across
// sync bits. A matching beacon scores near +1; noise (where the two
// tone powers are statistically equal) scores near 0, so the 0.55 gate
// rejects it.
//
// The tone powers of a sync window [a, b) are |S(b) - S(a)|² over the
// running tone sums S of dsp.ToneSums, taken once per tone at only the
// window edges off + i·n the offsets need, so a call costs O(len(rx))
// per tone plus O(1) per offset. A sum at a given index does not
// depend on which other edges were requested, so an offset scores the
// same in every call: Decode's fine pass re-scores the coarse peak
// exactly as the coarse pass did.
func (b *Beacon) syncScores(rx []float64, offs []int) []float64 {
	n := b.SymbolSamples()
	edges := make([]int, 0, (len(beaconSync)+1)*len(offs))
	for i := 0; i <= len(beaconSync); i++ {
		for _, off := range offs {
			edges = append(edges, off+i*n)
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	fs := float64(b.SampleRate)
	s0 := dsp.ToneSums(rx, b.F0, fs, edges)
	s1 := dsp.ToneSums(rx, b.F1, fs, edges)
	// at[i] is the position in edges of off+i·n; it only moves forward
	// as off ascends.
	at := make([]int, len(beaconSync)+1)
	scores := make([]float64, len(offs))
	for j, off := range offs {
		for i := range at {
			for edges[at[i]] < off+i*n {
				at[i]++
			}
		}
		var score float64
		for i, bit := range beaconSync {
			p0 := dsp.CAbs2(s0[at[i+1]] - s0[at[i]])
			p1 := dsp.CAbs2(s1[at[i+1]] - s1[at[i]])
			tot := p0 + p1
			if tot <= 0 {
				continue
			}
			if bit == 0 {
				score += (p0 - p1) / tot
			} else {
				score += (p1 - p0) / tot
			}
		}
		scores[j] = score / float64(len(beaconSync))
	}
	return scores
}

// demodBit compares tone energies over one symbol.
func (b *Beacon) demodBit(seg []float64) int {
	p0 := dsp.GoertzelPower(seg, b.F0, float64(b.SampleRate))
	p1 := dsp.GoertzelPower(seg, b.F1, float64(b.SampleRate))
	if p1 > p0 {
		return 1
	}
	return 0
}

// SyncLen returns the sync pattern length in samples.
func (b *Beacon) SyncLen() int { return len(beaconSync) * b.SymbolSamples() }
