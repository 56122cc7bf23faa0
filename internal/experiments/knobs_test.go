package experiments

import (
	"context"
	"encoding/json"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"simaibench/internal/scenario"
)

// knobCases holds, for every registered scenario, shrunken params that
// run in well under a second and, in alt, a second value of every knob
// the scenario declares that bears on its result.
var knobCases = map[string]struct{ base, alt scenario.Params }{
	"table2":     {scenario.Params{TrainIters: 40}, scenario.Params{TrainIters: 60}},
	"table3":     {scenario.Params{TrainIters: 40}, scenario.Params{TrainIters: 60}},
	"fig2":       {scenario.Params{TrainIters: 20, TimelineWindowS: 25}, scenario.Params{TrainIters: 60, TimelineWindowS: 10}},
	"fig3":       {scenario.Params{SweepIters: 20}, scenario.Params{SweepIters: 30}},
	"fig4":       {scenario.Params{SweepIters: 20}, scenario.Params{SweepIters: 30}},
	"fig5":       {scenario.Params{Transfers: 5}, scenario.Params{Transfers: 50}},
	"fig6":       {scenario.Params{SweepIters: 20}, scenario.Params{SweepIters: 30}},
	"streaming":  {},
	"ablation":   {scenario.Params{SweepIters: 20}, scenario.Params{SweepIters: 100}},
	"scale-out":  {scenario.Params{SweepIters: 20, Tenants: 2}, scenario.Params{SweepIters: 30, Tenants: 4}},
	"resilience": {scenario.Params{SweepIters: 40, Tenants: 2, MTBF: 20, CkptInterval: 4}, scenario.Params{SweepIters: 60, Tenants: 3, MTBF: 10, CkptInterval: 2}},
	"campaign":   {scenario.Params{Jobs: 50, Tenants: 4, Rate: 1.2, Policy: "fifo"}, scenario.Params{Jobs: 60, Tenants: 8, Rate: 0.9, Policy: "edf"}},
	"gradsync":   {scenario.Params{SweepIters: 3, CollAlgo: "ring"}, scenario.Params{SweepIters: 4, CollAlgo: "tree"}},
}

// field returns the Params field of knob k (one knob per field, in field
// order).
func field(p *scenario.Params, k scenario.Knob) reflect.Value {
	return reflect.ValueOf(p).Elem().Field(bits.TrailingZeros32(uint32(k)))
}

// TestEveryScenarioActsOnItsKnobs holds each registered scenario to what
// it declares: every declared knob that bears on the result changes the
// reported tables, the run-control knobs (a generous deadline and event
// budget) leave them unchanged, and every knob it does not
// declare is refused by the check both edges run. The tables are compared
// as their JSON records, at full precision: fig5's transfer count moves
// its steady-state throughputs in the last digits only, below what the
// text tables print. Clock and time_scale are left out of the first
// rule: they choose and compress the emulation time domain, so on the
// default virtual clock neither moves a reported number.
func TestEveryScenarioActsOnItsKnobs(t *testing.T) {
	for _, name := range scenario.Names() {
		if strings.HasPrefix(name, "t-") {
			continue // registered by another test
		}
		tc, ok := knobCases[name]
		if !ok {
			t.Errorf("%s: no knob case; add shrunken params for it to knobCases", name)
			continue
		}
		sc, _ := scenario.Lookup(name)
		t.Run(name, func(t *testing.T) {
			run := func(p scenario.Params) string {
				t.Helper()
				res, err := sc.Run(context.Background(), p)
				if err != nil {
					t.Fatalf("%+v: %v", p, err)
				}
				if len(res.Failures) > 0 {
					t.Fatalf("%+v: failed cells %+v", p, res.Failures)
				}
				tables, err := json.Marshal(res.Tables)
				if err != nil {
					t.Fatal(err)
				}
				return string(tables)
			}
			base := run(tc.base)
			reads := sc.Reads()
			for _, key := range (reads.Results() &^ (scenario.Clock | scenario.TimeScale)).Keys() {
				k := knobByKey(t, key)
				p := tc.base
				field(&p, k).Set(field(&tc.alt, k))
				if p == tc.base {
					t.Fatalf("%s: knobCases gives no second value", key)
				}
				if run(p) == base {
					t.Errorf("%s %v leaves the tables unchanged", key, field(&p, k))
				}
			}
			p := tc.base
			if reads&scenario.TimeoutS != 0 {
				p.TimeoutS = 600
			}
			if reads&scenario.MaxEvents != 0 {
				p.MaxEvents = 1 << 40
			}
			if got := run(p); got != base {
				t.Errorf("run-control knobs %v change the tables", (p.Knobs() &^ reads.Results()).Keys())
			}
			for _, key := range (^reads).Keys() {
				k := knobByKey(t, key)
				var p scenario.Params
				switch f := field(&p, k); f.Kind() {
				case reflect.String:
					f.SetString("virtual")
				case reflect.Float64:
					f.SetFloat(1)
				default:
					f.SetInt(1)
				}
				err := scenario.CheckReads(p.Knobs(), sc)
				if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) || !strings.Contains(err.Error(), name) {
					t.Errorf("CheckReads(%s) = %v, want an error naming %q and %s", key, err, key, name)
				}
			}
		})
	}
}

// knobByKey returns the knob whose JSON key is key.
func knobByKey(t *testing.T, key string) scenario.Knob {
	for k := scenario.Knob(1); k != 0; k <<= 1 {
		if keys := k.Keys(); len(keys) == 1 && keys[0] == key {
			return k
		}
	}
	t.Fatalf("no knob has key %q", key)
	return 0
}

// TestEveryScenarioEncodesAtItsSmallestCounts runs every registered
// scenario from its knob case with one count knob it reads at 1, the
// smallest value a set knob may take, for each such knob. The result,
// failed cells included, must encode as JSON on the CLI's path and the
// server's, and no table may repeat a column key: a row is one JSON
// record keyed by column.
func TestEveryScenarioEncodesAtItsSmallestCounts(t *testing.T) {
	for _, name := range scenario.Names() {
		if strings.HasPrefix(name, "t-") {
			continue // registered by another test
		}
		sc, _ := scenario.Lookup(name)
		for _, key := range sc.Reads().Keys() {
			p := knobCases[name].base
			f := field(&p, knobByKey(t, key))
			if f.Kind() != reflect.Int && f.Kind() != reflect.Int64 {
				continue
			}
			f.SetInt(1)
			t.Run(name+"/"+key, func(t *testing.T) {
				res, err := sc.Run(context.Background(), p)
				if err != nil {
					t.Fatalf("%+v: %v", p, err)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("%+v: %v (%d failed cells)", p, err, len(res.Failures))
				}
				if _, err := res.AppendJSON(nil); err != nil {
					t.Errorf("%+v: AppendJSON: %v", p, err)
				}
				for _, tb := range res.Tables {
					seen := map[string]bool{}
					for _, c := range tb.Columns {
						if seen[c.Key] {
							t.Errorf("table %q repeats column key %q", tb.Title, c.Key)
						}
						seen[c.Key] = true
					}
				}
			})
		}
	}
}
