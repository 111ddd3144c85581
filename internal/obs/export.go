package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"toss/internal/emit"
	"toss/internal/telemetry"
)

// The exporters are byte-deterministic for a fixed seed: instrument names
// come out of Metrics.Each in sorted order, field order is fixed, and every
// number goes through strconv with an explicit format. A golden test holds
// the line.

// splitName separates a telemetry.Labeled instrument name into its base and
// the inner label list ("" when unlabeled): `a.b{fn="x"}` -> (`a.b`,
// `fn="x"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// promFamily sanitizes a base instrument name into a Prometheus metric
// family name under the toss_ namespace.
func promFamily(base string) string {
	var b strings.Builder
	b.WriteString("toss_")
	for _, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label block, appending extra ("" to skip) after the
// instrument's own labels.
func promLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus renders every registered instrument in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges become single
// samples; histograms become cumulative _bucket series plus _sum and _count.
func WritePrometheus(w io.Writer, m *telemetry.Metrics) error {
	type family struct {
		name  string
		kind  telemetry.Kind
		lines []string
	}
	fams := make(map[string]*family)
	order := []string{}
	add := func(base string, kind telemetry.Kind, lines ...string) {
		fam := promFamily(base)
		f, ok := fams[fam]
		if !ok {
			f = &family{name: fam, kind: kind}
			fams[fam] = f
			order = append(order, fam)
		}
		f.lines = append(f.lines, lines...)
	}
	m.Each(func(name string, kind telemetry.Kind, s telemetry.Sample) {
		base, labels := splitName(name)
		switch kind {
		case telemetry.KindCounter, telemetry.KindGauge:
			add(base, kind, promFamily(base)+promLabels(labels, "")+" "+strconv.FormatInt(s.Value, 10))
		case telemetry.KindHistogram:
			fam := promFamily(base)
			lines := make([]string, 0, len(s.Bounds)+3)
			var cum int64
			for i, bound := range s.Bounds {
				if i < len(s.Counts) {
					cum += s.Counts[i]
				}
				lines = append(lines, fam+"_bucket"+promLabels(labels, `le="`+strconv.FormatInt(bound, 10)+`"`)+" "+strconv.FormatInt(cum, 10))
			}
			lines = append(lines,
				fam+"_bucket"+promLabels(labels, `le="+Inf"`)+" "+strconv.FormatInt(s.Count, 10),
				fam+"_sum"+promLabels(labels, "")+" "+strconv.FormatInt(s.Sum, 10),
				fam+"_count"+promLabels(labels, "")+" "+strconv.FormatInt(s.Count, 10))
			add(base, kind, lines...)
		}
	})
	sort.Strings(order)
	for _, fam := range order {
		f := fams[fam]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV renders a snapshot's sampled series as long-format CSV with a
// fixed `series,t_ns,value` header — one row per point, series in sorted
// order, points in time order.
func WriteCSV(w io.Writer, snap Snapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "t_ns", "value"}); err != nil {
		return err
	}
	for _, s := range snap.Series {
		for _, p := range s.Points {
			if err := cw.Write([]string{
				s.Name,
				strconv.FormatInt(p.T.Nanoseconds(), 10),
				strconv.FormatInt(p.V, 10),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimeseriesJSON renders the full snapshot — series, residency
// timelines, audits — as a single JSON document, hand-serialized so field
// order is fixed.
func WriteTimeseriesJSON(w io.Writer, snap Snapshot) error {
	var b strings.Builder
	b.WriteString(`{"now_ns":`)
	b.WriteString(strconv.FormatInt(snap.Now.Nanoseconds(), 10))
	b.WriteString(`,"interval_ns":`)
	b.WriteString(strconv.FormatInt(snap.Interval.Nanoseconds(), 10))

	b.WriteString(`,"series":[`)
	for i, s := range snap.Series {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":`)
		b.WriteString(emit.JSONString(s.Name))
		b.WriteString(`,"points":[`)
		for j, p := range s.Points {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `[%d,%d]`, p.T.Nanoseconds(), p.V)
		}
		b.WriteString(`]}`)
	}

	b.WriteString(`],"timelines":[`)
	for i, tl := range snap.Timelines {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"function":`)
		b.WriteString(emit.JSONString(tl.Function))
		fmt.Fprintf(&b, `,"restores":%d,"fast_faults":%d,"slow_faults":%d,"fast_fault_cost_ns":%d,"slow_fault_cost_ns":%d,"events":[`,
			tl.Restores, tl.Faults[0], tl.Faults[1],
			tl.FaultCost[0].Nanoseconds(), tl.FaultCost[1].Nanoseconds())
		for j, ev := range tl.Events {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"at_ns":%d,"cause":%s,"slow_pages":%d,"total_pages":%d,"fast_share":%s}`,
				ev.At.Nanoseconds(), emit.JSONString(ev.Cause), ev.SlowPages, ev.TotalPages,
				strconv.FormatFloat(ev.FastShare(), 'g', -1, 64))
		}
		b.WriteString(`]}`)
	}

	b.WriteString(`],"audits":[`)
	for i, a := range snap.Audits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"function":%s,"seq":%d,"at_ns":%d,"pages":%d,"threshold":%d,"rank_correlation":%s,"hot_pages":%d,"cold_pages":%d,"hot_as_cold":%d,"cold_as_hot":%d}`,
			emit.JSONString(a.Function), a.Seq, a.At.Nanoseconds(), a.Pages, a.Threshold,
			strconv.FormatFloat(a.RankCorrelation, 'g', -1, 64),
			a.HotPages, a.ColdPages, a.HotAsCold, a.ColdAsHot)
	}
	b.WriteString(`]}`)
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
