package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// wireValue is one metric in the result object.
type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the one-line JSON object a run ends its output with.
type wireResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

// MarshalJSON encodes the result as the object the benchmark contract
// asks for: correct, attempted, failed, and metrics by name with value
// and unit.
func (r *Result) MarshalJSON() ([]byte, error) {
	w := wireResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]wireValue, len(r.Metrics))}
	for _, m := range r.Metrics {
		w.Metrics[m.Name] = wireValue{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes what MarshalJSON wrote; metric order and sample
// counts do not travel.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Result{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed}
	for name, v := range w.Metrics {
		r.Metrics = append(r.Metrics, Metric{Name: name, Value: v.Value, Unit: v.Unit})
	}
	return nil
}

// Value returns the named metric's value, and whether the result has it.
func (r *Result) Value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteText prints one "workload metric value unit n=" line per metric,
// then the failure count, a traced run's self time per span name, and
// the first failure messages.
func (r *Result) WriteText(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count n=0\n", r.Workload, r.Attempted)
	fmt.Fprintf(w, "%s failed_frac %.6g ratio n=%d\n", r.Workload, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
	layers := make([]string, 0, len(r.LayerSelf))
	for name := range r.LayerSelf {
		layers = append(layers, name)
	}
	sort.Strings(layers)
	for _, name := range layers {
		fmt.Fprintf(w, "# %s self_time %s %.6g ms\n", r.Workload, name, r.LayerSelf[name].Seconds()*1e3)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s failure: %s\n", r.Workload, e)
	}
}
