package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The canonicalization contract: semantically equal Params must produce
// identical canonical bytes and therefore identical cache keys, whether
// the caller spelled scenario defaults out explicitly or left them zero,
// and regardless of the JSON key order a request body arrived in.

func TestCanonicalParamsRoundTrip(t *testing.T) {
	defaults := Params{SweepIters: 600, Tenants: 16, Clock: "virtual", TimeScale: 0.01}
	p := Params{SweepIters: 100, Rate: 1.2, Policy: "srpt"}

	canon, err := CanonicalParams(p, defaults)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip: the canonical bytes decode back to exactly the merged
	// params.
	var back Params
	if err := json.Unmarshal(canon, &back); err != nil {
		t.Fatalf("canonical bytes do not parse as JSON: %v\n%s", err, canon)
	}
	want := p.merge(defaults)
	if back != want {
		t.Fatalf("round-trip = %+v, want merged %+v", back, want)
	}
	// Stability: re-canonicalizing the round-tripped params reproduces
	// the identical bytes.
	again, err := CanonicalParams(back, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, again) {
		t.Fatalf("canonical form not stable:\n%s\n%s", canon, again)
	}
}

// Every Params field must be wired through all the places the cache key
// and the edges depend on: a json name (so the canonical bytes carry it)
// that is its knob-table row's key, merge (so a default fills it and a
// set value survives) and therefore CacheKey, Knobs, and — when the row
// has a flag — the CLI flag that writes it. A field added to the struct
// but not to the table fails here by name. A numeric one must also be
// held to Validate's rule: a negative value is refused, naming the
// field's json key; a string one is checked against its parser.
func TestParamsFieldsMergedAndKeyed(t *testing.T) {
	if n := reflect.TypeOf(Params{}).NumField(); n != len(knobs) {
		t.Fatalf("Params has %d fields, the knob table %d rows", n, len(knobs))
	}
	// valid holds two accepted ids of each string knob with a parser.
	valid := map[string][2]string{
		"clock": {"virtual", "wall"}, "policy": {"fifo", "edf"}, "coll_algo": {"flat", "ring"},
	}
	// set returns Params with only field i set, to its k-th non-zero
	// value (k = 1, 2).
	set := func(i, k int) Params {
		var p Params
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(k))
		case reflect.Float64:
			f.SetFloat(float64(k) + 0.5)
		case reflect.String:
			if ids, ok := valid[knobs[i].key]; ok && k > 0 {
				f.SetString(ids[k-1])
			} else {
				f.SetString(strings.Repeat("a", k))
			}
		default:
			t.Fatalf("Params.%s has kind %s: teach this test (and merge) about it",
				reflect.TypeOf(p).Field(i).Name, f.Kind())
		}
		return p
	}
	key := func(p, d Params) string {
		k, err := CacheKey("s", p, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		t.Run(field.Name, func(t *testing.T) {
			name, _, _ := strings.Cut(field.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				t.Fatalf("json tag %q: the field would not reach the canonical bytes", field.Tag.Get("json"))
			}
			row := knobs[i]
			if row.key != name || row.knob != Knob(1)<<i {
				t.Fatalf("knob table row %d is %q (bit %#x), want the field's json key %q (bit %#x)",
					i, row.key, row.knob, name, Knob(1)<<i)
			}
			a, b := set(i, 1), set(i, 2)
			if got := a.Knobs(); got != row.knob {
				t.Errorf("Knobs() = %v, want [%s]", got.Keys(), name)
			}
			if row.flag != "" {
				var p Params
				fs := flag.NewFlagSet("t", flag.ContinueOnError)
				BindFlags(fs, &p)
				if fs.Lookup(row.flag).DefValue != fmt.Sprint(row.def) && field.Type.Kind() != reflect.String {
					t.Errorf("-%s defaults to %s, want %v", row.flag, fs.Lookup(row.flag).DefValue, row.def)
				}
				raw, _ := json.Marshal(reflect.ValueOf(b).Field(i).Interface())
				value, _ := strconv.Unquote(string(raw))
				if value == "" {
					value = string(raw)
				}
				if err := fs.Parse([]string{"-" + row.flag, value}); err != nil {
					t.Fatalf("-%s %s: %v", row.flag, value, err)
				}
				got, want := reflect.ValueOf(p).Field(i).Interface(), reflect.ValueOf(b).Field(i).Interface()
				if got != want || FlagKnobs(fs) != row.knob {
					t.Errorf("-%s %s wrote %v (knobs %v), want %v", row.flag, value, got, FlagKnobs(fs).Keys(), want)
				}
			}
			if got := (Params{}).merge(a); got != a {
				t.Errorf("merge did not fill the zero field from defaults: %+v, want %+v", got, a)
			}
			if got := b.merge(a); got != b {
				t.Errorf("merge overwrote a set field: %+v, want %+v", got, b)
			}
			zero := key(Params{}, Params{})
			if key(a, Params{}) == zero || key(Params{}, a) == zero {
				t.Error("setting the field (directly or as a default) left the cache key unchanged")
			}
			if key(a, Params{}) == key(b, Params{}) {
				t.Error("two values of the field share one cache key")
			}
			if key(a, Params{}) != key(Params{}, a) {
				t.Error("spelled out and defaulted give different cache keys")
			}
			if err := a.Validate(); err != nil {
				t.Errorf("Validate refused a positive value: %v", err)
			}
			if field.Type.Kind() != reflect.String {
				neg := set(i, -1)
				if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
					t.Errorf("Validate(%+v) = %v, want an error naming %q", neg, err, name)
				}
			} else if row.check != nil {
				var bad Params
				reflect.ValueOf(&bad).Elem().Field(i).SetString("bogus")
				if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) ||
					!strings.Contains(err.Error(), valid[name][0]) {
					t.Errorf("Validate(%+v) = %v, want an error naming %q and the valid ids", bad, err, name)
				}
			}
		})
	}
}

// JSON cannot carry NaN: the key of such params is an error, never a
// hash of something else, and Validate refuses them and ±Inf first.
func TestCacheKeyRejectsNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Params{Rate: bad}).Validate(); err == nil || !strings.Contains(err.Error(), `"rate"`) {
			t.Errorf("Validate(rate = %v) = %v, want an error naming \"rate\"", bad, err)
		}
	}
	if k, err := CacheKey("s", Params{Rate: math.NaN()}, Params{}, 0); err == nil {
		t.Fatalf("NaN rate hashed to %s", k)
	}
}

// Two semantically equal parameter sets — one leaving scenario defaults
// implicit, one spelling every default out — must hash to the same key;
// different effective params, or a different seed, must not.
func TestCacheKeyStability(t *testing.T) {
	defaults := Params{SweepIters: 600, Tenants: 16, Clock: "virtual"}

	implicit := Params{Rate: 0.7}
	explicit := Params{Rate: 0.7, SweepIters: 600, Tenants: 16, Clock: "virtual"}

	k1, err := CacheKey("campaign", implicit, defaults, 42)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey("campaign", explicit, defaults, 42)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("semantically equal params split the cache: %s vs %s", k1, k2)
	}

	k3, _ := CacheKey("campaign", Params{Rate: 1.2}, defaults, 42)
	if k3 == k1 {
		t.Error("different rate collides with the same key")
	}
	k4, _ := CacheKey("campaign", implicit, defaults, 43)
	if k4 == k1 {
		t.Error("different seed collides with the same key")
	}
	k5, _ := CacheKey("scale-out", implicit, defaults, 42)
	if k5 == k1 {
		t.Error("different scenario collides with the same key")
	}
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Errorf("key %q is not lowercase hex sha-256", k1)
	}
}

// A request body's JSON key order must not affect the key: two
// orderings of the same document decode to the same Params and
// therefore the same canonical bytes — the decode-then-canonicalize
// discipline that keeps map-ordering out of the cache key.
func TestCacheKeyInvariantUnderJSONKeyOrder(t *testing.T) {
	defaults := Params{SweepIters: 600}
	bodies := []string{
		`{"sweep_iters": 100, "rate": 1.2, "policy": "srpt"}`,
		`{"policy": "srpt", "rate": 1.2, "sweep_iters": 100}`,
	}
	var keys []string
	for _, body := range bodies {
		var p Params
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatal(err)
		}
		k, err := CacheKey("campaign", p, defaults, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if keys[0] != keys[1] {
		t.Errorf("JSON key order split the cache: %s vs %s", keys[0], keys[1])
	}
}

// FuzzCanonicalParams: whatever JSON a client sends, the key depends
// only on the effective params — re-encoding the decoded params, or
// applying the defaults a second time, leaves it unchanged, and the
// canonical bytes decode to the merged params. The seed corpus runs
// under plain go test.
func FuzzCanonicalParams(f *testing.F) {
	f.Add(`{}`, `{}`)
	f.Add(`{"rate": 1.2, "policy": "srpt"}`, `{"sweep_iters": 600, "tenants": 16, "clock": "virtual"}`)
	f.Add(`{"sweep_iters": 600, "time_scale": -0.0}`, `{"sweep_iters": 600, "time_scale": 0.01}`)
	f.Add(`{"policy": "\u0000\ud800", "max_events": 9223372036854775807}`, `{"workers": 4}`)
	f.Add(`{"mtbf_s": 1e-320, "ckpt_interval_s": 1.7976931348623157e308}`, `{"coll_algo": "hier"}`)
	f.Fuzz(func(t *testing.T, body, defaultsBody string) {
		var p, d Params
		if json.Unmarshal([]byte(body), &p) != nil || json.Unmarshal([]byte(defaultsBody), &d) != nil {
			t.Skip()
		}
		// Decoded JSON holds no NaN or Inf, so keying cannot fail.
		key, err := CacheKey("fuzz", p, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var again Params
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("re-encoded params do not parse: %v\n%s", err, raw)
		}
		if k, _ := CacheKey("fuzz", again, d, 1); k != key {
			t.Errorf("key changed across a marshal/unmarshal round trip of %s", raw)
		}
		if k, _ := CacheKey("fuzz", p.merge(d), d, 1); k != key {
			t.Errorf("key changed when the defaults were merged twice into %s", raw)
		}
		canon, err := CanonicalParams(p, d)
		if err != nil {
			t.Fatal(err)
		}
		var back Params
		if err := json.Unmarshal(canon, &back); err != nil || back != p.merge(d) {
			t.Errorf("canonical bytes %s decode to %+v (%v), want %+v", canon, back, err, p.merge(d))
		}
	})
}
