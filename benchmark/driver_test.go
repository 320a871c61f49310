package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ptsbench/internal/btree"
	"ptsbench/internal/core"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// Quick sizes: the real shapes with 1/quickShrink of the keys and ops.
const (
	quickShrink  = 32
	quickSeconds = 4
)

// TestDriverMatchesCoreRun pins the benchmark's own driver to the runner
// users call: for all five shapes the whole sample series, the latency
// summary, the load time and the device discard counters equal
// core.Run(spec)'s bit for bit. The traced driver must in turn equal the
// untraced one (the shims are transparent) and its device-call log must
// replay to the run's exact flash statistics.
func TestDriverMatchesCoreRun(t *testing.T) {
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			spec, err := c.specFor(3, quickSeconds, quickShrink)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := setUp(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer r.st.Close()
			o, err := r.measure()
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Errorf("%d of %d ops failed", o.failed, o.ops)
			}
			if r.now != want.LoadDuration || r.numKeys != want.NumKeys {
				t.Errorf("load: ended at %v with %d keys, core.Run at %v with %d", r.now, r.numKeys, want.LoadDuration, want.NumKeys)
			}
			if !reflect.DeepEqual(o.series, want.Series) {
				t.Errorf("sample series differs from core.Run's: final sample\n got %+v\nwant %+v", o.last(), want.Series.Samples[len(want.Series.Samples)-1])
			}
			if o.lat != want.Latency {
				t.Errorf("latency summary %v, core.Run's %v", o.lat, want.Latency)
			}
			var discards, discarded int64
			for _, d := range o.devs {
				discards += d.DiscardOps
				discarded += d.PagesDiscarded
			}
			if discards != want.DiscardOps || discarded != want.PagesDiscarded {
				t.Errorf("discards %d ops / %d pages, core.Run's %d / %d", discards, discarded, want.DiscardOps, want.PagesDiscarded)
			}
			e2e := endToEnd(r, o, 1, 1)
			if got := e2e["sim_kops"].Value; got != want.ScaledKOps {
				t.Errorf("sim_kops %v, core.Run's ScaledKOps %v", got, want.ScaledKOps)
			}
			if got := e2e["wa_e2e"].Value; got != want.Steady.EndToEndWA {
				t.Errorf("wa_e2e %v, core.Run's %v", got, want.Steady.EndToEndWA)
			}
			if got := e2e["space_amp"].Value; got != want.SpaceAmp {
				t.Errorf("space_amp %v, core.Run's %v", got, want.SpaceAmp)
			}
			if v, err := r.verifyScan(o.end); err != nil || v != 0 {
				t.Errorf("post-run scan: %d violations, err %v", v, err)
			}

			tr := newTracer(spec.Replicas > 1)
			rt, err := setUp(spec, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.st.Close()
			ot, err := rt.measure()
			if err != nil {
				t.Fatal(err)
			}
			if ot.digest() != o.digest() {
				t.Errorf("traced run's sim_digest differs: the shims are not transparent\n got %+v\nwant %+v", ot.last(), o.last())
			}
			cost := replay(rt, ot)
			if cost.mismatch != nil {
				t.Error(cost.mismatch)
			}
			layers := perLayer(rt, ot, o, cost)
			if c.spec.Shards <= 1 {
				var sum float64
				for _, name := range layerShares {
					sum += layers[name].Value
				}
				if traced := layers["trace.host_ns_per_op"].Value; math.Abs(sum-traced) > 0.05*traced {
					t.Errorf("layers account for %.0f ns/op of the traced %.0f ns/op", sum, traced)
				}
			}
			if got, want := layers["replica.member_calls_per_op"].Value, float64(spec.Replicas); got != want {
				t.Errorf("replica.member_calls_per_op %v, want %v (no read-repair on a healthy group)", got, want)
			}
		})
	}
}

// TestEngineShimGroupCommits: store and replica decide by type assertion
// whether an engine can group-commit, so a shim that hid the surface
// would silently change the cell. A btree stack behind the shim must
// still pay one journal sync for a multi-write intake.
func TestEngineShimGroupCommits(t *testing.T) {
	c, _ := cellByName("btree-write-aged")
	spec, err := c.specFor(1, quickSeconds, quickShrink)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(spec, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.st.Close()
	tree := r.stacks[0].eng.(*btree.Tree)
	before := tree.JournalSyncCount()
	for i := uint64(0); i < 8; i++ {
		r.st.Submit(store.Op{Kind: store.Put, Submit: r.now + sim.Duration(i), KeyID: i, Key: kv.EncodeKey(i), ValueLen: spec.ValueBytes})
	}
	for _, comp := range r.st.Pump() {
		if comp.Err != nil {
			t.Fatal(comp.Err)
		}
	}
	if got := tree.JournalSyncCount() - before; got != 1 {
		t.Fatalf("multi-write intake behind the shim cost %d journal syncs, want exactly 1", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps the driver's contract file in step
// with the code: same workloads, same end-to-end metrics with the same
// units, directions and bounds, and exactly the per-layer metrics a
// traced run prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var bm struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(cells) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(bm.Workloads), len(cells))
	}
	for i, c := range cells {
		if bm.Workloads[i].Name != c.name || bm.Workloads[i].Why != c.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, c.name, c.why)
		}
	}
	if len(bm.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code has %d", len(bm.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		better := "higher"
		if d.lower {
			better = "lower"
		}
		if got, want := bm.EndToEnd[i], (entry{Name: d.name, Unit: d.unit, Better: better, Bound: d.bound}); got != want {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, want)
		}
	}

	// The per-layer names and units come from a real (tiny) traced run.
	c := cells[0]
	spec, err := c.specFor(1, 1, 8*quickShrink)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(spec, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.st.Close()
	o, err := r.measure()
	if err != nil {
		t.Fatal(err)
	}
	layers := perLayer(r, o, o, replay(r, o))
	if len(bm.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(bm.PerLayer), len(layers))
	}
	for _, e := range bm.PerLayer {
		m, ok := layers[e.Name]
		if !ok {
			t.Errorf("BENCHMARK.json lists per-layer metric %q, which no traced run prints", e.Name)
		} else if m.Unit != e.Unit {
			t.Errorf("per-layer metric %q: BENCHMARK.json says unit %q, the code %q", e.Name, e.Unit, m.Unit)
		}
	}
}

// TestFineHist checks the log-linear histogram against exact statistics
// of the same samples: quantiles and the tail mean within its 0.8%
// resolution, the mean exactly.
func TestFineHist(t *testing.T) {
	rng := sim.NewRNG(7)
	var h fineHist
	var vals []float64
	var sum float64
	for i := 0; i < 200000; i++ {
		v := int64(rng.Uint64n(1000)) // exact range
		if i%10 == 0 {
			v = int64(rng.Uint64n(50_000_000)) // log-linear range
		}
		h.add(v)
		vals = append(vals, float64(v))
		sum += float64(v)
	}
	sort.Float64s(vals)
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.01*want+1 {
			t.Errorf("%s = %v, exact %v", what, got, want)
		}
	}
	if got, want := h.mean(), sum/float64(len(vals)); got != want {
		t.Errorf("mean = %v, exact %v", got, want)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		near(fmt.Sprint("quantile ", q), h.quantile(q), vals[int(q*float64(len(vals)))])
	}
	var tail float64
	from := len(vals) * 99 / 100
	for _, v := range vals[from:] {
		tail += v
	}
	near("tailMean(0.99)", h.tailMean(0.99), tail/float64(len(vals)-from))
}

// TestVerdict pins -compare's judgement of one metric: worse than the
// bound regresses, a spread between repetitions wider than the bound
// leaves a host metric unresolved, and a simulated metric is identical
// or has moved.
func TestVerdict(t *testing.T) {
	host := metricDef{name: "host_ns_per_op", lower: true, bound: 0.25}
	simHigher := metricDef{name: "sim_kops", bound: 0.12, simulated: true}
	for _, tc := range []struct {
		def  metricDef
		a, b summary
		want string
	}{
		{host, summary{Value: 100}, summary{Value: 110}, "ok"},
		{host, summary{Value: 100}, summary{Value: 130}, "regressed"},
		{host, summary{Value: 100}, summary{Value: 70}, "improved"},
		{host, summary{Value: 100, Spread: 0.3}, summary{Value: 130}, "unresolved"},
		{simHigher, summary{Value: 10}, summary{Value: 10}, "ok (identical)"},
		{simHigher, summary{Value: 10}, summary{Value: 9.5}, "ok (moved"},
		{simHigher, summary{Value: 10}, summary{Value: 8}, "regressed"},
		{simHigher, summary{Value: 10}, summary{Value: 12}, "improved"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s %v -> %v: verdict %q, want %q...", tc.def.name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}
