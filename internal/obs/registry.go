package obs

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
)

// Every metric the pipeline exports is declared once, by struct tags on
// the field that holds it:
//
//	Foo atomic.Int64 `prom:"tagmatch_foo_total" json:"foo" help:"What one increment means."`
//
//   - prom is the Prometheus family, with the series' constant labels in
//     braces: `prom:"tagmatch_bars_total{outcome=won}"`.
//   - json is the series' key in /debug/stats ("metrics"), and in
//     core.Stats, which takes every field whose JSON name is a key.
//   - help is the family's # HELP text, given on its first series.
//
// The kind follows from the field and the name: a Histogram is a
// histogram, a name ending in _total a counter, anything else a gauge. A
// family whose name holds _seconds records nanoseconds and exports
// seconds. A declared field is an atomic.Int64, a Histogram or a Gauge;
// in a Labeled value read at export time it may be a plain number. Any
// other exported struct field is walked for declarations, and its own
// tags may give every declaration inside it labels (`prom:"{op=h2d}"`)
// and a key prefix (`json:"gpu_h2d"`).

// Gauge is a gauge computed when it is read. The engine installs each
// one when it starts; an unset Gauge reads 0.
type Gauge func() float64

// Labeled is a struct value whose declared fields export under extra
// labels, read at scrape time: a device's gpu.Stats, one partition's
// counters. Their JSON lives in their own /debug/stats sections.
type Labeled struct {
	Labels Labels
	Value  any
}

// Desc describes one declared series.
type Desc struct {
	Name   string // Prometheus family
	Kind   string // "counter", "gauge" or "histogram"
	Help   string // the family's help, on its first series
	Labels Labels
	Key    string  // JSON key
	Scale  float64 // exported value = recorded value × Scale
}

// metric is a declared series and the field that holds its value.
type metric struct {
	Desc
	v reflect.Value // addressable
}

var histType = reflect.TypeOf(Histogram{})

// declare appends the series declared in the struct v, which must be
// addressable, under the given labels and key prefix.
func declare(v reflect.Value, labels Labels, key string, out []metric) []metric {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		name, lbl := parseProm(sf.Tag.Get("prom"))
		ls := append(labels[:len(labels):len(labels)], lbl...)
		k := key + sf.Tag.Get("json")
		if name == "" {
			if sf.Type.Kind() == reflect.Struct {
				if k != key {
					k += "_"
				}
				out = declare(v.Field(i), ls, k, out)
			}
			continue
		}
		d := Desc{Name: name, Kind: "gauge", Help: sf.Tag.Get("help"), Labels: ls, Key: k, Scale: 1}
		switch {
		case sf.Type == histType:
			d.Kind = "histogram"
		case strings.HasSuffix(name, "_total"):
			d.Kind = "counter"
		}
		if strings.Contains(name, "_seconds") {
			d.Scale = 1e-9
		}
		out = append(out, metric{d, v.Field(i)})
	}
	return out
}

// parseProm splits `name{k=v,k=v}` into the name and its labels.
func parseProm(tag string) (string, Labels) {
	name, rest, ok := strings.Cut(tag, "{")
	if !ok {
		return name, nil
	}
	var ls Labels
	for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
		k, v, _ := strings.Cut(kv, "=")
		ls = append(ls, [2]string{k, v})
	}
	return name, ls
}

// read returns the series' current value: an int64 for a counter or an
// integer field, a float64 for a Gauge or a float field, a HistSnapshot
// for a histogram.
func (m *metric) read() any {
	switch f := m.v.Addr().Interface().(type) {
	case *atomic.Int64:
		return f.Load()
	case *Histogram:
		return f.Snapshot()
	case *Gauge:
		if *f == nil {
			return 0.0
		}
		return (*f)()
	}
	if m.v.CanInt() {
		return m.v.Int()
	}
	return m.v.Float()
}

// register declares the pipeline's own series and checks the
// declarations: one key per series, one kind per family, help on each
// family's first series (the one WriteProm's header takes it from). A
// broken declaration panics when a pipeline is built.
func (p *Pipeline) register() {
	p.metrics = byFamily(declare(reflect.ValueOf(p).Elem(), nil, "", nil))
	p.byKey = make(map[string]*metric, len(p.metrics))
	kinds := map[string]string{}
	series := map[string]bool{}
	for i := range p.metrics {
		m := &p.metrics[i]
		id := m.Name + m.Labels.String()
		if m.Key == "" || p.byKey[m.Key] != nil || series[id] {
			panic(fmt.Sprintf("obs: %s: missing or duplicate key %q, or series declared twice", id, m.Key))
		}
		if k, ok := kinds[m.Name]; ok && k != m.Kind {
			panic(fmt.Sprintf("obs: family %s declared as %s and %s", m.Name, k, m.Kind))
		} else if !ok && m.Help == "" {
			panic("obs: family " + m.Name + " has no help on its first series")
		}
		p.byKey[m.Key], series[id], kinds[m.Name] = m, true, m.Kind
	}
}

// byFamily orders ms so that each family's series are consecutive, in
// the order of each family's first series.
func byFamily(ms []metric) []metric {
	at := map[string]int{}
	var fams [][]metric
	for _, m := range ms {
		i, ok := at[m.Name]
		if !ok {
			i = len(fams)
			at[m.Name] = i
			fams = append(fams, nil)
		}
		fams[i] = append(fams[i], m)
	}
	out := make([]metric, 0, len(ms))
	for _, f := range fams {
		out = append(out, f...)
	}
	return out
}

// Metrics describes every series the pipeline declares itself, family by
// family; the Labeled series of devices and partitions are not among
// them.
func (p *Pipeline) Metrics() []Desc {
	out := make([]Desc, len(p.metrics))
	for i := range p.metrics {
		out[i] = p.metrics[i].Desc
	}
	return out
}

// values returns every declared series' value by its key.
func (p *Pipeline) values() map[string]any {
	out := make(map[string]any, len(p.metrics))
	for i := range p.metrics {
		out[p.metrics[i].Key] = p.metrics[i].read()
	}
	return out
}

// Fill sets each field of the struct *dst whose JSON name is a declared
// key to that series' value: a counter's or gauge's, or a histogram's
// sum. The field must be an integer; core.Engine.Stats is built this
// way.
func (p *Pipeline) Fill(dst any) {
	v := reflect.ValueOf(dst).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		m := p.byKey[key]
		if m == nil {
			continue
		}
		switch x := m.read().(type) {
		case int64:
			v.Field(i).SetInt(x)
		case float64:
			v.Field(i).SetInt(int64(x))
		case HistSnapshot:
			v.Field(i).SetInt(x.Sum)
		}
	}
}

// WriteProm writes every declared series in the Prometheus text format:
// the pipeline's own, each device's (Devices) and the TopPartitions
// partitions with the most routed queries.
func (p *Pipeline) WriteProm(w io.Writer) {
	var ls []Labeled
	if p.Devices != nil {
		ls = p.Devices()
	}
	for _, ps := range p.Parts.Hottest(p.topPartitions) {
		ls = append(ls, Labeled{Labels{{"partition", itoa(ps.ID)}}, ps})
	}
	var dyn []metric
	for _, l := range ls {
		v := reflect.New(reflect.TypeOf(l.Value)).Elem()
		v.Set(reflect.ValueOf(l.Value))
		dyn = declare(v, l.Labels, "", dyn)
	}
	ms := byFamily(append(p.metrics[:len(p.metrics):len(p.metrics)], dyn...))
	pw := promWriter{w: w}
	for i := range ms {
		m := &ms[i]
		if i == 0 || ms[i-1].Name != m.Name {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind)
		}
		switch x := m.read().(type) {
		case int64:
			pw.sample(m.Name, m.Labels, float64(x)*m.Scale)
		case float64:
			pw.sample(m.Name, m.Labels, x*m.Scale)
		case HistSnapshot:
			pw.histogram(m.Name, m.Labels, x, m.Scale)
		}
	}
}
