package phy

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aquago/internal/channel"
	"aquago/internal/dsp"
)

func TestBeaconRates(t *testing.T) {
	for _, rate := range []int{5, 10, 20} {
		b, err := NewBeacon(rate)
		if err != nil {
			t.Fatal(err)
		}
		wantSamples := map[int]int{5: 9600, 10: 4800, 20: 2400}[rate]
		if b.SymbolSamples() != wantSamples {
			t.Fatalf("rate %d: symbol %d samples, want %d", rate, b.SymbolSamples(), wantSamples)
		}
	}
	if _, err := NewBeacon(7); err == nil {
		t.Fatal("expected error for unsupported rate")
	}
}

func TestBeaconRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rate := range []int{5, 10, 20} {
		b, err := NewBeacon(rate)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]int, 8)
		for i := range bits {
			bits[i] = rng.Intn(2)
		}
		tx, err := b.Encode(bits)
		if err != nil {
			t.Fatal(err)
		}
		rx := make([]float64, len(tx)+b.SymbolSamples())
		dsp.AddAt(rx, tx, 333)
		got, off, ok := b.Decode(rx, len(bits))
		if !ok {
			t.Fatalf("rate %d: sync failed", rate)
		}
		if off < 333-b.SymbolSamples()/8 || off > 333+b.SymbolSamples()/8 {
			t.Fatalf("rate %d: sync offset %d, want ~333", rate, off)
		}
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("rate %d: bit %d flipped", rate, i)
			}
		}
	}
}

func TestBeaconIDRoundTrip(t *testing.T) {
	b, err := NewBeacon(10)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := b.EncodeID(41) // 101001
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]float64, len(tx)+1000)
	dsp.AddAt(rx, tx, 200)
	bits, _, ok := b.Decode(rx, SOSIDBits)
	if !ok {
		t.Fatal("ID beacon sync failed")
	}
	id := 0
	for _, bit := range bits {
		id = id<<1 | bit
	}
	if id != 41 {
		t.Fatalf("decoded ID %d, want 41", id)
	}
	if _, err := b.EncodeID(64); err == nil {
		t.Fatal("expected error for 7-bit ID")
	}
}

func TestBeaconValidation(t *testing.T) {
	b, _ := NewBeacon(20)
	if _, err := b.Encode([]int{0, 1, 2}); err == nil {
		t.Fatal("expected invalid bit error")
	}
	if _, _, ok := b.Decode(make([]float64, 100), 8); ok {
		t.Fatal("too-short rx must not sync")
	}
	if _, err := b.DecodeAligned(make([]float64, 100), 0, 8); err == nil {
		t.Fatal("expected short-rx error")
	}
}

func TestBeaconNoSyncOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	b, _ := NewBeacon(20)
	rx := make([]float64, 60000)
	for i := range rx {
		rx[i] = rng.NormFloat64()
	}
	if _, _, ok := b.Decode(rx, 8); ok {
		t.Fatal("noise must not sync")
	}
}

func TestBeaconLongRangeThroughChannel(t *testing.T) {
	// The headline long-range claim: at 10 bps the beacon decodes at
	// 100 m where OFDM data cannot (Fig 12d: BER < 1% at 113 m for
	// 5 and 10 bps).
	rng := rand.New(rand.NewSource(33))
	b, err := NewBeacon(10)
	if err != nil {
		t.Fatal(err)
	}
	link, err := channel.NewLink(channel.LinkParams{
		Env: channel.Beach, DistanceM: 100, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]int, 8)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	tx, err := b.Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	rx := link.Transmit(tx)
	got, _, ok := b.Decode(rx, len(bits))
	if !ok {
		t.Fatal("beacon sync failed at 100 m")
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs > 0 {
		t.Fatalf("%d/8 beacon bit errors at 100 m", errs)
	}
}

func BenchmarkBeaconDecode(b *testing.B) {
	for _, rate := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("%dbps", rate), func(b *testing.B) {
			bc, err := NewBeacon(rate)
			if err != nil {
				b.Fatal(err)
			}
			bits := []int{1, 0, 1, 1, 0, 0, 1, 0}
			tx, err := bc.Encode(bits)
			if err != nil {
				b.Fatal(err)
			}
			// Two symbols of slack: the arrival offset sits mid-way.
			rx := make([]float64, len(tx)+2*bc.SymbolSamples())
			dsp.AddAt(rx, tx, bc.SymbolSamples()*5/12)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := bc.Decode(rx, len(bits)); !ok {
					b.Fatal("sync failed")
				}
			}
		})
	}
}

// oracleSyncScore and oracleDecode are the per-offset Goertzel sync
// search Decode replaced, kept verbatim as the reference its running
// tone sums must reproduce. The one edit: oracleDecode takes its
// per-offset score function as syncScore, so the same search can also
// run on the new scores (see FuzzBeaconDecode).
func oracleSyncScore(b *Beacon, rx []float64, off int) float64 {
	n := b.SymbolSamples()
	var score float64
	for i, bit := range beaconSync {
		seg := rx[off+i*n : off+(i+1)*n]
		p0 := dsp.GoertzelPower(seg, b.F0, float64(b.SampleRate))
		p1 := dsp.GoertzelPower(seg, b.F1, float64(b.SampleRate))
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
	return score / float64(len(beaconSync))
}

func oracleDecode(b *Beacon, rx []float64, nBits int, syncScore func(rx []float64, off int) float64) (bits []int, offset int, ok bool) {
	n := b.SymbolSamples()
	total := (len(beaconSync) + nBits) * n
	if len(rx) < total {
		return nil, 0, false
	}
	// Coarse sync: score the sync pattern at a grid of offsets.
	bestOff, bestScore := -1, 0.0
	step := n / 8
	if step < 1 {
		step = 1
	}
	for off := 0; off+total <= len(rx); off += step {
		score := syncScore(rx, off)
		if score > bestScore {
			bestScore, bestOff = score, off
		}
	}
	if bestOff < 0 || bestScore < 0.55 {
		return nil, 0, false
	}
	// Fine sync around the coarse peak.
	fineBest, fineScore := bestOff, bestScore
	for off := bestOff - step; off <= bestOff+step; off++ {
		if off < 0 || off+total > len(rx) {
			continue
		}
		if s := syncScore(rx, off); s > fineScore {
			fineScore, fineBest = s, off
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

// oracleResult is oracleDecode's answer on one input, with the score
// of every offset it searched.
type oracleResult struct {
	bits   []int
	offset int
	ok     bool
	scored map[int]float64
}

// runOracle runs oracleDecode with the Goertzel scores, or with
// Decode's own running-sum scores when sums is set.
func runOracle(b *Beacon, rx []float64, nBits int, sums bool) oracleResult {
	r := oracleResult{scored: map[int]float64{}}
	r.bits, r.offset, r.ok = oracleDecode(b, rx, nBits, func(rx []float64, off int) float64 {
		s := oracleSyncScore(b, rx, off)
		if sums {
			s = b.syncScores(rx, []int{off})[0]
		}
		r.scored[off] = s
		return s
	})
	return r
}

// sameDecision asserts that Decode returns exactly want's (bits,
// offset, ok) on rx.
func sameDecision(t *testing.T, name string, b *Beacon, rx []float64, nBits int, want oracleResult) {
	t.Helper()
	bits, off, ok := b.Decode(rx, nBits)
	if ok != want.ok || off != want.offset || !slices.Equal(bits, want.bits) {
		t.Errorf("%s: Decode = (%v, %d, %t), oracle (%v, %d, %t)", name, bits, off, ok, want.bits, want.offset, want.ok)
	}
}

// sameScores asserts that every offset want searched gets want's score
// from syncScores to within 1e-9. Scores lie in [-1, 1], so the
// tolerance is relative to the larger of the score and 1.
func sameScores(t *testing.T, name string, b *Beacon, rx []float64, want oracleResult) {
	t.Helper()
	offs := slices.Sorted(maps.Keys(want.scored))
	for j, got := range b.syncScores(rx, offs) {
		w := want.scored[offs[j]]
		if d := math.Abs(got - w); d > 1e-9*math.Max(math.Abs(w), 1) {
			t.Errorf("%s: offset %d scores %.17g, oracle %.17g", name, offs[j], got, w)
			return
		}
	}
}

// checkAgainstOracle asserts that Decode answers exactly as the
// Goertzel oracle on rx and scores every searched offset as it does.
func checkAgainstOracle(t *testing.T, name string, b *Beacon, rx []float64, nBits int) {
	t.Helper()
	want := runOracle(b, rx, nBits, false)
	sameDecision(t, name, b, rx, nBits, want)
	sameScores(t, name, b, rx, want)
}

// resolved reports whether every sync window o scored is silent or
// carries a tone amplitude far above either method's rounding error,
// taken as 1e-13 of the input's total |x|: a term (p_e - p_o)/(p_e +
// p_o) then moves by < 1e-9. A run of one repeated value, for one,
// leaves both methods' tone powers pure rounding noise.
func resolved(b *Beacon, rx []float64, o oracleResult) bool {
	n := b.SymbolSamples()
	fs := float64(b.SampleRate)
	var mass float64
	for _, v := range rx {
		mass += math.Abs(v)
	}
	for off := range o.scored {
		for i := range beaconSync {
			seg := rx[off+i*n : off+(i+1)*n]
			if !slices.ContainsFunc(seg, func(v float64) bool { return v != 0 }) {
				continue
			}
			tot := dsp.GoertzelPower(seg, b.F0, fs) + dsp.GoertzelPower(seg, b.F1, fs)
			if math.Sqrt(tot) < 3e-4*mass || tot < 1e-250 {
				return false
			}
		}
	}
	return true
}

func TestBeaconDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, rate := range []int{5, 10, 20} {
		b, err := NewBeacon(rate)
		if err != nil {
			t.Fatal(err)
		}
		n := b.SymbolSamples()
		// The slow oracle scans 5 bps beacons ~16x longer than 20 bps
		// ones, so the slower rates get fewer cases.
		cases := map[int]int{5: 1, 10: 2, 20: 4}[rate]
		for c := 0; c < cases; c++ {
			id := DeviceID(rng.Intn(1 << SOSIDBits))
			tx, err := b.EncodeID(id)
			if err != nil {
				t.Fatal(err)
			}
			// Clean signal behind silent padding of up to one symbol.
			pad := rng.Intn(n)
			rx := make([]float64, pad+len(tx)+rng.Intn(n))
			copy(rx[pad:], tx)
			checkAgainstOracle(t, fmt.Sprintf("%d bps clean pad %d", rate, pad), b, rx, SOSIDBits)

			// The same beacon across the beach.
			dist := 20 + 93*rng.Float64()
			link, err := channel.NewLink(channel.LinkParams{Env: channel.Beach, DistanceM: dist, Seed: rng.Int63()})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("%d bps beach %.0f m", rate, dist), b, link.Transmit(rx), SOSIDBits)

			// Noise alone.
			noise := make([]float64, len(rx))
			for i := range noise {
				noise[i] = rng.NormFloat64()
			}
			checkAgainstOracle(t, fmt.Sprintf("%d bps noise", rate), b, noise, SOSIDBits)
		}
	}
}

func TestBeaconDecodeRejectsNonFiniteSyncSpan(t *testing.T) {
	b, err := NewBeacon(20)
	if err != nil {
		t.Fatal(err)
	}
	n := b.SymbolSamples()
	tx, err := b.EncodeID(41)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]float64, len(tx)+n)
	copy(rx[n/3:], tx)
	span := len(rx) - SOSIDBits*n
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, n / 3, span - 1} {
			bad := slices.Clone(rx)
			bad[at] = v
			if _, _, ok := b.Decode(bad, SOSIDBits); ok {
				t.Errorf("%v at %d of the %d-sample sync span: Decode synced", v, at, span)
			}
		}
		// Past the span only the payload is read: sync still succeeds,
		// as the oracle's does.
		bad := slices.Clone(rx)
		bad[span] = v
		checkAgainstOracle(t, fmt.Sprintf("%v past the span", v), b, bad, SOSIDBits)
	}
}

// fuzzBeacon is a scaled-down beacon, 40-sample symbols at 8 kHz, so a
// whole beacon fits in a small corpus entry; Decode's search runs the
// same code at every symbol length.
func fuzzBeacon() *Beacon {
	return &Beacon{SampleRate: 8000, BitRateBPS: 200, F0: 1000, F1: 2000}
}

// FuzzBeaconDecode feeds Decode arbitrary samples (the input read as
// little-endian float64s) and payload widths. Decode must not panic
// and must refuse a sync span holding NaN or ±Inf. On a finite span
// it must make exactly the oracle's decisions (grid, 0.55 gate,
// strict-> tie-breaking, fine window) when the oracle is fed Decode's
// own scores; and where |x| <= 1e3 and every searched window is
// resolved, those scores must match the Goertzel oracle's to 1e-9.
// Together that is agreement with the oracle up to rounding: near-tied
// offsets may still resolve differently, as any two roundings do.
func FuzzBeaconDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, nBits uint8) {
		b := fuzzBeacon()
		n := b.SymbolSamples()
		nb := int(nBits % (SOSIDBits + 1))
		rx := make([]float64, len(data)/8)
		finite, bounded := true, true
		for i := range rx {
			rx[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(rx[i]) || math.IsInf(rx[i], 0) {
				if i < len(rx)-nb*n {
					finite = false
				}
			} else if math.Abs(rx[i]) > 1e3 {
				bounded = false
			}
		}
		bits, off, ok := b.Decode(rx, nb)
		switch {
		case !ok:
		case !finite:
			t.Fatalf("synced at %d with a non-finite sample in the sync span", off)
		case len(bits) != nb || off < 0 || off+(len(beaconSync)+nb)*n > len(rx):
			t.Fatalf("synced at %d with %d bits in %d samples", off, len(bits), len(rx))
		}
		if !finite {
			return
		}
		sameDecision(t, "fuzz", b, rx, nb, runOracle(b, rx, nb, true))
		if want := runOracle(b, rx, nb, false); bounded && resolved(b, rx, want) {
			sameScores(t, "fuzz", b, rx, want)
		}
	})
}
