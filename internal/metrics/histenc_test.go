package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHistogramBinaryRoundTrip(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		h.Record(time.Duration(rng.Int63n(int64(5 * time.Second))))
	}
	h.RecordN(time.Hour*10, 3) // overflow bucket

	var back Histogram
	if err := back.UnmarshalBinary(h.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("count/min/max mismatch: %v vs %v", back.Summarize(), h.Summarize())
	}
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99, 0.999} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Fatalf("q%.3f mismatch: %v vs %v", q, back.Quantile(q), h.Quantile(q))
		}
	}
	if back.Mean() != h.Mean() {
		t.Fatalf("mean mismatch: %v vs %v", back.Mean(), h.Mean())
	}

	// Decoded histograms must merge like the originals.
	var h2, merged, mergedBack Histogram
	for i := 0; i < 1000; i++ {
		h2.Record(time.Duration(rng.Int63n(int64(time.Millisecond))))
	}
	merged.Merge(&h)
	merged.Merge(&h2)
	var back2 Histogram
	if err := back2.UnmarshalBinary(h2.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	mergedBack.Merge(&back)
	mergedBack.Merge(&back2)
	if mergedBack.Count() != merged.Count() || mergedBack.Quantile(0.99) != merged.Quantile(0.99) {
		t.Fatalf("merge mismatch: %v vs %v", mergedBack.Summarize(), merged.Summarize())
	}
}

// encodeRaw hand-builds an encoding so tests can craft byte streams the
// encoder itself would never produce.
func encodeRaw(total uint64, sum float64, min, max, nonzero uint64, pairs ...uint64) []byte {
	b := []byte{histEncVersion}
	b = binary.AppendUvarint(b, total)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sum))
	b = binary.AppendUvarint(b, min)
	b = binary.AppendUvarint(b, max)
	b = binary.AppendUvarint(b, nonzero)
	for _, v := range pairs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestHistogramBinarySingleBucket round-trips the smallest non-empty
// histogram: one value, one live bucket.
func TestHistogramBinarySingleBucket(t *testing.T) {
	var h, back Histogram
	h.Record(42 * time.Microsecond)
	if err := back.UnmarshalBinary(h.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 1 || back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("single-bucket round trip: %v vs %v", back.Summarize(), h.Summarize())
	}
	if back.Quantile(0.5) != h.Quantile(0.5) {
		t.Fatalf("median %v vs %v", back.Quantile(0.5), h.Quantile(0.5))
	}
}

// TestHistogramBinaryMaxCount round-trips saturated bucket counts — the
// largest values the varint layer has to carry.
func TestHistogramBinaryMaxCount(t *testing.T) {
	var h, back Histogram
	h.RecordN(time.Millisecond, math.MaxUint32)
	h.RecordN(time.Second, math.MaxUint32)
	if err := back.UnmarshalBinary(h.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Quantile(0.99) != h.Quantile(0.99) {
		t.Fatalf("max-count round trip: %v vs %v", back.Summarize(), h.Summarize())
	}
}

// TestHistogramBinaryAdversarial feeds hand-crafted hostile encodings to
// the decoder: every one must be rejected, never absorbed into state.
func TestHistogramBinaryAdversarial(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		// counted would wrap uint64: MaxUint64 + 2 ≡ 1 == total. The
		// per-bucket remainder guard must reject the first count.
		{"count overflow forges total", encodeRaw(1, 0, 1, 1, 2,
			0, math.MaxUint64, 1, 2)},
		{"single count above total", encodeRaw(5, 0, 1, 1, 1, 0, 6)},
		{"bucket sum below total", encodeRaw(5, 0, 1, 1, 1, 0, 4)},
		{"repeated bucket", encodeRaw(4, 0, 1, 1, 2, 3, 2, 0, 2)},
		{"delta out of range", encodeRaw(2, 0, 1, 1, 1, histBucketN+1, 2)},
		{"delta wraps int64", encodeRaw(2, 0, 1, 1, 1, math.MaxUint64, 2)},
		{"nonzero exceeds payload", encodeRaw(2, 0, 1, 1, 50, 0, 2)},
	}
	for _, tc := range cases {
		var h Histogram
		if err := h.UnmarshalBinary(tc.data); err == nil {
			t.Errorf("%s: decoder accepted hostile input", tc.name)
		}
		if h.Count() != 0 {
			t.Errorf("%s: rejected input left count %d", tc.name, h.Count())
		}
	}
}

// TestHistogramBinaryTruncations verifies every proper prefix of a valid
// encoding is rejected — no partial decode may succeed.
func TestHistogramBinaryTruncations(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.RecordN(time.Second, 7)
	enc := h.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		var back Histogram
		if err := back.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(enc))
		}
	}
	var back Histogram
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}

// FuzzHistogramDecode hammers the decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to an equivalent
// histogram (decode∘encode is the identity on the accepted set).
func FuzzHistogramDecode(f *testing.F) {
	var empty Histogram
	f.Add(empty.AppendBinary(nil))
	var one Histogram
	one.Record(time.Millisecond)
	f.Add(one.AppendBinary(nil))
	var many Histogram
	for i := time.Duration(1); i < 100; i++ {
		many.RecordN(i*time.Millisecond, uint64(i))
	}
	f.Add(many.AppendBinary(nil))
	f.Add(encodeRaw(1, 0, 1, 1, 2, 0, math.MaxUint64, 1, 2)) // overflow forgery
	f.Add(encodeRaw(2, 0, 1, 1, 1, math.MaxUint64, 2))       // delta wrap
	f.Add([]byte{})
	f.Add([]byte{histEncVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		if err := h.UnmarshalBinary(data); err != nil {
			return
		}
		var back Histogram
		if err := back.UnmarshalBinary(h.AppendBinary(nil)); err != nil {
			t.Fatalf("accepted encoding did not round-trip: %v", err)
		}
		if back.Count() != h.Count() || back.Quantile(0.5) != h.Quantile(0.5) ||
			back.Quantile(0.99) != h.Quantile(0.99) {
			t.Fatalf("round trip drifted: %v vs %v", back.Summarize(), h.Summarize())
		}
	})
}

func TestHistogramBinaryEmptyAndErrors(t *testing.T) {
	var empty, back Histogram
	if err := back.UnmarshalBinary(empty.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 {
		t.Fatalf("empty round trip: count %d", back.Count())
	}
	if err := back.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if err := back.UnmarshalBinary([]byte{99}); err == nil {
		t.Fatal("bad version accepted")
	}
	enc := empty.AppendBinary(nil)
	if err := back.UnmarshalBinary(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated input accepted")
	}
}
