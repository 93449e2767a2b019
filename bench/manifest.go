package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
)

// manifest is BENCHMARK.json: the one declaration of workload names,
// metric names, units, directions and bounds. The harness emits metrics
// by name and takes everything else from here.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metrics is one workload's emitted values by name.
type metrics map[string]float64

// check reports a declared metric that was not emitted, an emitted one
// that was not declared, or a malformed name.
func (got metrics) check(decls []metricDecl) error {
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			return fmt.Errorf("declared metric %q was not emitted", d.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("emitted metric %q is not declared in BENCHMARK.json", name)
		}
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q is malformed", name)
		}
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted values (0 if empty).
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func median(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max-min)/median, the disagreement between segments.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	return (slices.Max(values) - slices.Min(values)) / m
}
