package audio

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// TestWAVRejectsHugeChunkSizes feeds ReadWAV a bare RIFF header and
// one chunk header whose declared size the stream never delivers. A
// size of 0xFFFFFFFF used to overflow the word-alignment pad into a
// zero-length body and panic on the fmt or data slice; a size just
// below it used to allocate ~4 GiB before reading a byte. Both must be
// a truncation error that allocates next to nothing.
func TestWAVRejectsHugeChunkSizes(t *testing.T) {
	for _, id := range []string{"fmt ", "data"} {
		for _, size := range []uint32{0xFFFFFFFF, 0xFFFFFFFE} {
			in := make([]byte, 20)
			copy(in, "RIFF")
			binary.LittleEndian.PutUint32(in[4:8], 12)
			copy(in[8:], "WAVE")
			copy(in[12:], id)
			binary.LittleEndian.PutUint32(in[16:20], size)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := ReadWAV(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("chunk %q size %#x: want a truncation error, got %v", id, size, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("chunk %q size %#x: allocated %d bytes for a 20-byte input", id, size, grew)
			}
		}
	}
}

// FuzzReadWAV feeds ReadWAV arbitrary bytes. It must not panic, and
// whatever it accepts must survive a WriteWAV round trip: same rate,
// same length, every sample equal to its PCM16 quantization (exact
// for mono input; a downmixed average rounds once).
func FuzzReadWAV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		samples, rate, err := ReadWAV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, samples, rate); err != nil {
			t.Fatalf("accepted %d samples at %d Hz but cannot write them back: %v", len(samples), rate, err)
		}
		back, backRate, err := ReadWAV(&buf)
		if err != nil {
			t.Fatalf("rereading the written file: %v", err)
		}
		if backRate != rate || len(back) != len(samples) {
			t.Fatalf("round trip: %d samples at %d Hz, want %d at %d Hz", len(back), backRate, len(samples), rate)
		}
		for i, s := range samples {
			if want := PCM16ToFloat(FloatToPCM16(s)); back[i] != want {
				t.Fatalf("round trip sample %d: %v, want %v (read %v)", i, back[i], want, s)
			}
		}
	})
}
