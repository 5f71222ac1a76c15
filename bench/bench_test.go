package bench

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mpf"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := SupportedPercentile(c.n); got != c.want {
			t.Errorf("SupportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 100 samples carry p90 (ten beyond) but not p95 (five beyond).
	if v, used := TailPercentile(xs, 95); used != 90 || v != 90 {
		t.Errorf("TailPercentile(1..100, 95) = %v at p%v, want 90 at p90", v, used)
	}
	if v := Percentile(xs, 50); v != 50 {
		t.Errorf("Percentile(1..100, 50) = %v, want 50", v)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []Span{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 30},
		{Name: "b", Parent: 0, StartNS: 20, EndNS: 50},  // overlaps a by 10
		{Name: "c", Parent: 0, StartNS: 90, EndNS: 120}, // 20 outside the parent
		{Name: "a", Parent: 2, StartNS: 25, EndNS: 35},
	}
	want := []int64{100 - 20 - 20 - 10, 20, 30 - 10, 30, 10}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	if got := LayerSelfTime(spans)["a"]; got != 30 {
		t.Errorf("LayerSelfTime[a] = %v, want 30ns", got)
	}
}

// tiny is the data scale of these tests; the workloads keep their shape.
const tiny = 0.05

func tinyScript(t *testing.T, w *workload, seed int64) *script {
	t.Helper()
	ds, err := w.generate(seed, tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := w.open(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sc, err := w.script(seed, ds, e.db)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSeedFixesTheOpSequence(t *testing.T) {
	for _, w := range workloads {
		a, again, b := tinyScript(t, w, 1), tinyScript(t, w, 1), tinyScript(t, w, 2)
		if h1, h2 := a.sequenceHash(w, 64), again.sequenceHash(w, 64); h1 != h2 {
			t.Errorf("%s: seed 1 gave op sequences %s and %s", w.name, h1, h2)
		}
		if h1, h2 := a.sequenceHash(w, 64), b.sequenceHash(w, 64); h1 == h2 {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence %s", w.name, h1)
		}
	}
}

func TestWrongAnswerAndPanicCountAsFailed(t *testing.T) {
	opts := Options{Workload: "ds_adhoc", Seed: 1, Seconds: 0.3, Setups: 1, Shrink: tiny}
	in, err := prepare(dsAdhoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	// One answer of 48 arrives with a measure changed, another makes the
	// checker panic; the rest are untouched.
	wrong, boom := in.sc.pool[3], in.sc.pool[4]
	check := wrong.check
	wrong.check = func(got *mpf.Relation, state int) error {
		bad := got.Clone()
		bad.SetMeasure(0, bad.Measure(0)*(1+1e-6))
		return check(bad, state)
	}
	boom.check = func(*mpf.Relation, int) error { panic("boom") }
	res, err := in.measure(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The single client walks the pool in order, so ops 3 and 4 of
	// every cycle fail and nothing else does.
	want := 0
	for i := 0; i < res.Attempted; i++ {
		if k := i % len(in.sc.pool); k == 3 || k == 4 {
			want++
		}
	}
	if res.Correct || res.Failed != want {
		t.Errorf("correct=%v failed=%d of %d, want %d failures", res.Correct, res.Failed, res.Attempted, want)
	}
	if res.Attempted <= 5 {
		t.Errorf("only %d ops: the run did not go on after the panic", res.Attempted)
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the
// code to.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Half a second of each workload at a twentieth of the data, untraced
// and traced: every answer right, and exactly the metrics BENCHMARK.json
// names, with its units.
func TestSmokeEveryWorkloadReportsTheDeclaredMetrics(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads()) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, Workloads())
	}
	for _, name := range Workloads() {
		for _, trace := range []bool{false, true} {
			res, err := Run(Options{Workload: name, Seed: 3, Seconds: 0.5, Trace: trace, Setups: 1, Shrink: tiny, OutDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, res.Failed, res.Attempted, res.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
				continue
			}
			for i, m := range res.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit {
					t.Errorf("%s trace=%v: metric %d is %s [%s], BENCHMARK.json declares %s [%s]", name, trace, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s = %v", name, m.Name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s %s = %v; end-to-end metrics are never 0", name, m.Name, m.Value)
				}
			}
		}
	}
}
