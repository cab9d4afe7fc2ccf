package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per metric family,
// cumulative `le` buckets plus _sum and _count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.snap.Load()
	var lastFamily string
	for _, m := range snap.metrics {
		if m.name != lastFamily {
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind.promType()); err != nil {
				return err
			}
			lastFamily = m.name
		}
		if m.kind == kindHistogram {
			hs := m.hist.Snapshot()
			var cum uint64
			for b := 0; b < NumBuckets; b++ {
				cum += hs.Buckets[b]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					m.name, m.labelString(L("le", BucketBound(b))), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, m.labelString(), hs.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labelString(), hs.Count); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.labelString(), m.value()); err != nil {
			return err
		}
	}
	return nil
}

// escapeHelp applies the HELP-line escaping (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// JSONHistogram is the expvar-style JSON shape of one histogram.
type JSONHistogram struct {
	Count   uint64            `json:"count"`
	SumNs   uint64            `json:"sum_ns"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // le -> cumulative count, empty buckets elided
}

// JSONSpans is the JSON shape of one provenance tracer: its totals plus
// the flight ring's recent spans (every DROP among them), oldest first.
type JSONSpans struct {
	Total       uint64 `json:"total"`
	Dropped     uint64 `json:"dropped"`
	Subscribers int    `json:"subscribers"`
	Recent      []Span `json:"recent"`
}

// JSONSnapshot is the full expvar-style JSON document. Scalar series of
// the same family collapse into a labels->value map, so the document both
// round-trips through encoding/json and stays human-scannable.
type JSONSnapshot struct {
	Counters   map[string]map[string]uint64        `json:"counters"`
	Gauges     map[string]map[string]uint64        `json:"gauges,omitempty"`
	Histograms map[string]map[string]JSONHistogram `json:"histograms,omitempty"`
	Spans      map[string]JSONSpans                `json:"spans,omitempty"`
}

// JSON materializes the snapshot document.
func (r *Registry) JSON() JSONSnapshot {
	snap := r.snap.Load()
	doc := JSONSnapshot{Counters: map[string]map[string]uint64{}}
	for _, m := range snap.metrics {
		key := m.jsonKey()
		switch m.kind {
		case kindHistogram:
			hs := m.hist.Snapshot()
			jh := JSONHistogram{Count: hs.Count, SumNs: hs.Sum}
			var cum uint64
			for b := 0; b < NumBuckets; b++ {
				if hs.Buckets[b] == 0 && b < NumBuckets-1 {
					cum += hs.Buckets[b]
					continue
				}
				cum += hs.Buckets[b]
				if jh.Buckets == nil {
					jh.Buckets = map[string]uint64{}
				}
				jh.Buckets[BucketBound(b)] = cum
			}
			if doc.Histograms == nil {
				doc.Histograms = map[string]map[string]JSONHistogram{}
			}
			fam := doc.Histograms[m.name]
			if fam == nil {
				fam = map[string]JSONHistogram{}
				doc.Histograms[m.name] = fam
			}
			fam[key] = jh
		case kindGaugeFunc:
			if doc.Gauges == nil {
				doc.Gauges = map[string]map[string]uint64{}
			}
			fam := doc.Gauges[m.name]
			if fam == nil {
				fam = map[string]uint64{}
				doc.Gauges[m.name] = fam
			}
			fam[key] = m.value()
		default:
			fam := doc.Counters[m.name]
			if fam == nil {
				fam = map[string]uint64{}
				doc.Counters[m.name] = fam
			}
			fam[key] = m.value()
		}
	}
	for _, t := range snap.tracers {
		if doc.Spans == nil {
			doc.Spans = map[string]JSONSpans{}
		}
		sps := t.Snapshot()
		if sps == nil {
			sps = []Span{}
		}
		doc.Spans[t.name] = JSONSpans{
			Total: t.Total(), Dropped: t.Dropped(),
			Subscribers: t.Subscribers(), Recent: sps,
		}
	}
	return doc
}

// WriteJSON writes the indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.JSON())
}

// MarshalJSON lets a Registry be embedded directly in larger documents.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.JSON())
}

// Handler serves /metrics (Prometheus text) and /vars (JSON); any other
// path gets a short index.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "pfirewall observability\n  /metrics  Prometheus text exposition\n  /vars     expvar-style JSON\n")
	})
	return mux
}
