package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// document is one invocation's output: what -out writes and -compare reads.
type document struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
	// AASpread is, per workload and end-to-end metric, how far two runs of
	// this same binary disagreed, as a share of the first (set by -aa).
	AASpread map[string]map[string]float64 `json:"aa_spread,omitempty"`
}

func (d *document) workload(name string) *workloadResult {
	for _, w := range d.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// merge folds a traced result into the untraced result of the same workload.
func (d *document) merge(r *workloadResult) {
	w := d.workload(r.Workload)
	if w == nil {
		d.Workloads = append(d.Workloads, r)
		return
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Problems = append(w.Problems, r.Problems...)
	if r.EndToEnd != nil {
		w.EndToEnd, w.Setup, w.OpsHash = r.EndToEnd, r.Setup, r.OpsHash
	}
	if r.PerLayer != nil {
		w.PerLayer = r.PerLayer
	}
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *document) writeFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric by name with its unit and sample count.
func (d *document) printTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tn\tnote")
	for _, wl := range d.Workloads {
		for _, set := range []struct {
			defs []metricDef
			vals map[string]metricValue
		}{{endToEndMetrics, wl.EndToEnd}, {perLayerMetrics, wl.PerLayer}} {
			for _, def := range set.defs {
				if m, ok := set.vals[def.Name]; ok {
					fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\n", wl.Workload, def.Name, formatValue(m.Value), m.Unit, m.N, m.Note)
				}
			}
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t%d/%d\trenders\t\t%s\n", wl.Workload, wl.Failed, wl.Attempted, strings.Join(wl.Problems, "; "))
	}
	return tw.Flush()
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.6f", v)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line flattens the document. With one workload the metrics carry
// their plain names; with several each is prefixed by its workload.
func (d *document) line() resultLine {
	out := resultLine{Correct: true, Metrics: map[string]contractVal{}}
	for _, wl := range d.Workloads {
		out.Correct = out.Correct && wl.correct()
		out.Attempted += wl.Attempted
		out.Failed += wl.Failed
		prefix := ""
		if len(d.Workloads) > 1 {
			prefix = wl.Workload + "/"
		}
		for _, vals := range []map[string]metricValue{wl.EndToEnd, wl.PerLayer} {
			for name, m := range vals {
				out.Metrics[prefix+name] = contractVal{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	if out.Attempted == 0 {
		out.Correct = false
	}
	return out
}

// worseBy is how much worse b is than a, as a share of a, given the metric's
// better direction; negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaSpread compares two runs of the same binary and records, per workload
// and end-to-end metric, their disagreement. It returns the metrics whose
// disagreement exceeds their bound and the count-valued per-layer metrics
// that did not repeat exactly.
func aaSpread(bf *benchmarkFile, first, second *document) (spread map[string]map[string]float64, over, unequal []string) {
	spread = map[string]map[string]float64{}
	for _, a := range first.Workloads {
		b := second.workload(a.Workload)
		if b == nil {
			continue
		}
		spread[a.Workload] = map[string]float64{}
		for _, def := range endToEndMetrics {
			ma, okA := a.EndToEnd[def.Name]
			mb, okB := b.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			s := math.Abs(worseBy(ma.Value, mb.Value, "lower"))
			spread[a.Workload][def.Name] = s
			if bm, ok := bf.endToEnd(def.Name); ok && s > bm.Bound {
				over = append(over, fmt.Sprintf("%s %s: %s vs %s, off by %.1f%% of the first (bound %.0f%%)",
					a.Workload, def.Name, formatValue(ma.Value), formatValue(mb.Value), 100*s, 100*bm.Bound))
			}
		}
		for _, def := range perLayerMetrics {
			ma, okA := a.PerLayer[def.Name]
			mb, okB := b.PerLayer[def.Name]
			if okA && okB && def.Unit == "count" && strings.Contains(def.Name, "_per_render") && ma.Value != mb.Value {
				unequal = append(unequal, fmt.Sprintf("%s %s: %s vs %s", a.Workload, def.Name, formatValue(ma.Value), formatValue(mb.Value)))
			}
		}
	}
	return spread, over, unequal
}

// compare prints one row per workload and end-to-end metric: both values,
// b/a with its base, the bound, and a verdict. A metric whose A/A spread in
// either file exceeds its bound cannot resolve a difference that small, so
// its verdict is "unresolved". The per-layer metrics follow each workload,
// beside the end-to-end metric each was predicted to move.
func compare(w io.Writer, bf *benchmarkFile, a, b *document) error {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a (base a)\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Workload)
		if wb == nil {
			continue
		}
		for _, def := range endToEndMetrics {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			bm, okM := bf.endToEnd(def.Name)
			if !okA || !okB || !okM {
				continue
			}
			verdict := "unchanged"
			switch worse := worseBy(ma.Value, mb.Value, bm.Better); {
			case a.AASpread[wa.Workload][def.Name] > bm.Bound || b.AASpread[wa.Workload][def.Name] > bm.Bound:
				verdict = "unresolved"
			case worse > bm.Bound:
				verdict = "worse"
			case worse < -bm.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f (a=%s %s)\t%.0f%%\t%s\n", wa.Workload, def.Name,
				formatValue(ma.Value), formatValue(mb.Value), ratio(mb.Value, ma.Value), formatValue(ma.Value), ma.Unit, 100*bm.Bound, verdict)
		}
		for _, def := range perLayerMetrics {
			ma, okA := wa.PerLayer[def.Name]
			mb, okB := wb.PerLayer[def.Name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(tw, "%s\t  %s\t%s\t%s\t%.3f (a=%s %s)\t\tmoves %s\n", wa.Workload, def.Name,
				formatValue(ma.Value), formatValue(mb.Value), ratio(mb.Value, ma.Value), formatValue(ma.Value), ma.Unit, def.Moves)
		}
	}
	return tw.Flush()
}
