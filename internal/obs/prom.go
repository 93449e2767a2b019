package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Labels is an ordered label set, rendered in declaration order so the
// exposition output is deterministic.
type Labels [][2]string

// String renders the label set as `{k1="v1",k2="v2"}`, or "" when empty.
func (l Labels) String() string {
	if len(l) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, kv := range l {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[0])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func (l Labels) with(extra [2]string) Labels {
	out := make(Labels, 0, len(l)+1)
	out = append(out, l...)
	return append(out, extra)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func itoa(v int) string { return strconv.Itoa(v) }

// promWriter emits samples in the Prometheus text exposition format
// (version 0.0.4); WriteProm writes each family's # HELP/# TYPE header.
type promWriter struct{ w io.Writer }

// sample emits one counter or gauge sample.
func (p promWriter) sample(name string, labels Labels, v float64) {
	fmt.Fprintf(p.w, "%s%s %s\n", name, labels.String(), fmtFloat(v))
}

// histogram emits a histogram series from a snapshot: cumulative
// `_bucket` samples at the snapshot's (non-empty) bucket bounds plus
// +Inf, and `_sum`/`_count`. scale converts recorded values to the
// exported unit (1e-9 for nanoseconds→seconds).
func (p promWriter) histogram(name string, labels Labels, s HistSnapshot, scale float64) {
	lbl := labels.String()
	cum := uint64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		le := fmtFloat(float64(b.Upper) * scale)
		fmt.Fprintf(p.w, "%s_bucket%s %d\n", name, labels.with([2]string{"le", le}).String(), cum)
	}
	fmt.Fprintf(p.w, "%s_bucket%s %d\n", name, labels.with([2]string{"le", "+Inf"}).String(), cum)
	fmt.Fprintf(p.w, "%s_sum%s %s\n", name, lbl, fmtFloat(float64(s.Sum)*scale))
	// _count must equal the +Inf bucket; under concurrent recording the
	// snapshot's Count field can transiently disagree with the buckets.
	fmt.Fprintf(p.w, "%s_count%s %d\n", name, lbl, cum)
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
