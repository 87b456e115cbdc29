package harness

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"testing"
)

func sampleResult() *Litmus7Result {
	return &Litmus7Result{
		N:             5000,
		TargetCount:   42,
		Ticks:         123456,
		OutcomeCounts: []int64{4958, 42},
		Histogram: map[string]int64{
			"0;1;":   4958,
			"0;0;":   42,
			"1;0;":   7,
			"1;1;2;": 1,
		},
		TracesVerified:  99,
		TraceViolations: 1,
		TraceReports:    []string{"cycle: rf;co", "cycle: rf;co"},
	}
}

// wireJSON normalizes a value for cross-codec comparison: both codecs
// must round-trip to the same canonical JSON, nil-vs-empty included.
func wireJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestWireBinaryRoundTrip(t *testing.T) {
	in := sampleResult()
	frame := EncodeWireBinary(nil, in)
	var out Litmus7Result
	if err := DecodeWireBinary(frame, &out, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := wireJSON(t, &out), wireJSON(t, in); got != want {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestWireBinaryReusesBuffer(t *testing.T) {
	in := sampleResult()
	buf := EncodeWireBinary(nil, in)
	want := append([]byte(nil), buf...)
	// Re-encoding into the same slice must produce identical bytes — the
	// worker's upload path recycles one buffer across batches.
	buf = EncodeWireBinary(buf, in)
	if !bytes.Equal(buf, want) {
		t.Fatal("re-encoding into a recycled buffer changed the frame bytes")
	}
}

func TestWireBinaryDeterministic(t *testing.T) {
	a := EncodeWireBinary(nil, sampleResult())
	b := EncodeWireBinary(nil, sampleResult())
	if !bytes.Equal(a, b) {
		t.Fatal("encoding the same value twice produced different frames")
	}
}

func TestWireBinarySmallerThanPlainJSON(t *testing.T) {
	// The binary codec trades generality for speed: no flate state, pure
	// append/scan. It must still beat uncompressed JSON on size (varints
	// plus front-coded keys remove most of the text overhead); a
	// compressor may do better on highly repetitive histograms, which is
	// fine — the codec's win is CPU and allocations, not peak
	// compression.
	in := sampleResult()
	for i := 0; i < 500; i++ {
		in.Histogram[OutcomeKey([][]int64{{int64(i)}, {int64(i % 7)}})] = int64(i)
	}
	frame := EncodeWireBinary(nil, in)
	plain, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(plain) {
		t.Fatalf("binary frame %dB not smaller than plain JSON %dB", len(frame), len(plain))
	}
}

func TestWireBinaryFrameDamage(t *testing.T) {
	frame := EncodeWireBinary(nil, sampleResult())

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0] = 'X'
		var out Litmus7Result
		if err := DecodeWireBinary(bad, &out, 0); !errors.Is(err, ErrWireFrame) {
			t.Fatalf("got %v, want ErrWireFrame", err)
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		// Flip one bit in every body position; the CRC (or a structural
		// check) must reject each damaged frame — never accept, never
		// panic.
		for i := 4; i < len(frame); i++ {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0x40
			var out Litmus7Result
			if err := DecodeWireBinary(bad, &out, 0); err == nil {
				t.Fatalf("accepted frame with bit flipped at byte %d", i)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(frame); n++ {
			var out Litmus7Result
			if err := DecodeWireBinary(frame[:n], &out, 0); !errors.Is(err, ErrWireFrame) {
				t.Fatalf("truncated frame (%d of %d bytes): got %v, want ErrWireFrame", n, len(frame), err)
			}
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		var out Litmus7Result
		if err := DecodeWireBinary(append(append([]byte(nil), frame...), 0), &out, 0); err == nil {
			t.Fatal("accepted frame with trailing data")
		}
	})
}

func TestDecodeWireBinaryLimit(t *testing.T) {
	in := sampleResult()
	for i := 0; i < 2000; i++ {
		in.Histogram[OutcomeKey([][]int64{{int64(i)}, {int64(i)}})] = 1
	}
	frame := EncodeWireBinary(nil, in)
	var out Litmus7Result
	if err := DecodeWireBinary(frame, &out, 64); !errors.Is(err, ErrWireTooLarge) {
		t.Fatalf("got %v, want ErrWireTooLarge", err)
	}
	out = Litmus7Result{}
	if err := DecodeWireBinary(frame, &out, 0); err != nil {
		t.Fatalf("default limit rejected a normal payload: %v", err)
	}
}

// TestDecodeWireRejectsGarbage feeds the decoder bodies that are not
// PWB1 frames — arbitrary bytes, and a gzip-compressed JSON upload as
// the retired codec sent it — and expects a frame error.
func TestDecodeWireRejectsGarbage(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(`{"n":1}`))
	zw.Close()
	for _, data := range [][]byte{[]byte("not a frame"), gz.Bytes()} {
		var out Litmus7Result
		if err := DecodeWireBinary(data, &out, 0); !errors.Is(err, ErrWireFrame) {
			t.Fatalf("DecodeWireBinary(%q) = %v, want ErrWireFrame", data, err)
		}
	}
}

// FuzzWireBinaryDecode feeds arbitrary bytes to the binary decoder: it
// must reject or accept, never panic or over-read.
func FuzzWireBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PWB1"))
	f.Add(EncodeWireBinary(nil, sampleResult()))
	f.Add(EncodeWireBinary(nil, &Litmus7Result{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Litmus7Result
		_ = DecodeWireBinary(data, &out, 1<<20)
	})
}

// FuzzWireRoundTrip drives the codec over generated results and
// demands exact round-trip equality (canonical-JSON compared, so
// nil-vs-empty normalization must match the JSON rendering too).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(int64(5000), int64(42), int64(123456), "0;1;", int64(4958), "cycle: rf;co")
	f.Add(int64(0), int64(0), int64(0), "", int64(0), "")
	f.Add(int64(-1), int64(-7), int64(1<<40), "k\x00;", int64(-9), "report\nline")
	f.Fuzz(func(t *testing.T, n, target, ticks int64, key string, count int64, report string) {
		in := &Litmus7Result{
			N:           int(n),
			TargetCount: target,
			Ticks:       ticks,
		}
		if key != "" {
			in.Histogram = map[string]int64{key: count, key + ";x": count + 1}
		}
		if report != "" {
			in.TraceReports = []string{report, report}
			in.OutcomeCounts = []int64{count, -count, n}
		}
		want := wireJSON(t, in)

		var fromBin Litmus7Result
		if err := DecodeWireBinary(EncodeWireBinary(nil, in), &fromBin, 0); err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if got := wireJSON(t, &fromBin); got != want {
			t.Fatalf("binary round trip:\n got %s\nwant %s", got, want)
		}

	})
}
