package obs

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzSpanDecode: Span.UnmarshalJSON never panics on arbitrary bytes, and
// whatever it accepts reaches a fixed point at once: decode → MarshalJSON →
// decode yields the first decode's span. The first decode keeps only the
// first SpanChainMax chains of a longer path.
//
// The seed corpus (testdata/fuzz) holds the span-stream golden of
// internal/trace, span lines captured off the stream of a tiny-world fleet
// (a DROP with its deciding rule, an entrypoint unwind, a syscall-begin
// probe, a batched directory search), a path past SpanChainMax, JSON null,
// and two lines of pfctl -trace output, which are not JSON.
func FuzzSpanDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Span
		if err := first.UnmarshalJSON(data); err != nil {
			return
		}
		var raw struct {
			Chains []string `json:"chains"`
		}
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatalf("%q decodes as a span but not as its chains: %v", data, err)
		}
		want := raw.Chains[:min(len(raw.Chains), SpanChainMax)]
		if got := first.Chains(); !slices.Equal(got, want) {
			t.Fatalf("%q: chains decode as %q, want the first %d of %q", data, got, SpanChainMax, raw.Chains)
		}
		enc, err := first.MarshalJSON()
		if err != nil {
			t.Fatalf("%q: re-encode: %v", data, err)
		}
		var second Span
		if err := second.UnmarshalJSON(enc); err != nil {
			t.Fatalf("%q re-encodes as %s, which does not decode: %v", data, enc, err)
		}
		if second != first {
			t.Fatalf("%q: decode → encode → decode moved the span:\n first %+v\nsecond %+v", data, first, second)
		}
	})
}
