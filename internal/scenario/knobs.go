package scenario

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"

	"simaibench/internal/clock"
	"simaibench/internal/mpi"
	"simaibench/internal/schedule"
)

// Knob is a set of Params fields. Each constant is one knob — one Params
// field, in field order — and | combines them into the set a scenario
// declares it reads (New) or a request sets (Params.Knobs).
type Knob uint32

// The knobs, one per Params field.
const (
	TrainIters Knob = 1 << iota
	SweepIters
	TimeScale
	Transfers
	TimelineWindowS
	Tenants
	Clock
	MTBF
	CkptInterval
	Rate
	Policy
	Jobs
	TimeoutS
	MaxEvents
	CollAlgo
)

// knobRow is one row of the knob table. Row i describes Params field i.
type knobRow struct {
	knob Knob
	key  string // the Params field's JSON key
	flag string // the cmd/experiments flag name ("" = no flag)
	def  float64
	// result is false for the knobs that only bound or speed up a run:
	// a value that lets the run finish leaves what it reports unchanged.
	result bool
	check  func(string) error // refuses a bad non-empty string value
	usage  string
}

// knobs is the knob table: every place a knob is named — merge,
// Validate, the CLI's flags, -list, /v1/scenarios and the check that
// refuses a knob its scenario does not read — is derived from it.
var knobs = [...]knobRow{
	{TrainIters, "train_iters", "train-iters", 2500, true, nil, "validation training iterations (paper: 5000)"},
	{SweepIters, "sweep_iters", "sweep-iters", 600, true, nil, "simulated training iterations per sweep point"},
	{TimeScale, "time_scale", "time-scale", 0.01, true, nil, "wall-clock compression for real-mode validation"},
	{Transfers, "transfers", "", 0, true, nil, ""},
	{TimelineWindowS, "timeline_window_s", "", 0, true, nil, ""},
	{Tenants, "tenants", "tenants", 0, true, nil, "max co-scheduled workflows for the scale-out family (0 = scenario default, 16)"},
	{Clock, "clock", "clock", 0, true, checkClock, "emulation clock for the real-mode scenarios: virtual (default; deterministic, DES speed) or wall (genuine real-time emulation)"},
	{MTBF, "mtbf_s", "mtbf", 0, true, nil, "per-node MTBF seconds for the resilience family: narrows the sweep to {healthy, MTBF} (0 = full default grid)"},
	{CkptInterval, "ckpt_interval_s", "ckpt", 0, true, nil, "checkpoint interval seconds for the resilience family: narrows the sweep to {fail-stop, CKPT} (0 = full default grid)"},
	{Rate, "rate", "rate", 0, true, nil, "offered load multiple for the campaign family: narrows the sweep to {RATE} (0 = full default grid)"},
	{Policy, "policy", "policy", 0, true, checkPolicy, "scheduling policy for the campaign family: fifo|edf|srpt|hermod (empty = all policies)"},
	{Jobs, "jobs", "jobs", 0, true, nil, "open-loop jobs per campaign sweep cell (0 = scenario default, 2000)"},
	{TimeoutS, "timeout_s", "timeout", 0, false, nil, "per-sweep-cell wall-clock deadline in seconds (0 = none); a wedged cell is abandoned with a structured failure instead of hanging the run"},
	{MaxEvents, "max_events", "max-events", 0, false, nil, "DES event budget per simulated sweep cell (0 = unlimited); a runaway cell aborts with a structured budget error"},
	{CollAlgo, "coll_algo", "collalgo", 0, true, checkCollAlgo, "collective algorithm for the gradsync family: flat|ring|tree|hier (empty = full algorithm sweep)"},
}

// The string knobs' checks: each id is valid iff its parser accepts it.
var (
	checkClock    = parses(clock.FromKind)
	checkPolicy   = parses(schedule.ParsePolicy)
	checkCollAlgo = parses(mpi.ParseCollAlgo)
)

func parses[T any](parse func(string) (T, error)) func(string) error {
	return func(s string) error { _, err := parse(s); return err }
}

// KnobError refuses one knob: a value Validate does not accept, or a knob
// set for scenarios none of which reads it (CheckReads).
type KnobError struct {
	// Key is the knob's JSON key and Flag its cmd/experiments flag name
	// ("" when it has none).
	Key, Flag string
	// Detail completes the sentence about the knob, e.g. "is -1: must be
	// finite and not negative".
	Detail string
}

// Error names the knob by its JSON key.
func (e *KnobError) Error() string { return fmt.Sprintf("params: %q %s", e.Key, e.Detail) }

func (r *knobRow) errorf(format string, args ...any) *KnobError {
	return &KnobError{Key: r.key, Flag: r.flag, Detail: fmt.Sprintf(format, args...)}
}

// fields returns the addressable fields of *p, in knob-table order.
func fields(p *Params) reflect.Value { return reflect.ValueOf(p).Elem() }

// isZero reports whether f holds its knob's "use the default" value
// (-0 counts as 0, as in the == 0 tests of the harnesses).
func isZero(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.String:
		return f.String() == ""
	case reflect.Float64:
		return f.Float() == 0
	default:
		return f.Int() == 0
	}
}

// merge fills zero fields of p from d.
func (p Params) merge(d Params) Params {
	pv, dv := fields(&p), fields(&d)
	for i := range knobs {
		f, df := pv.Field(i), dv.Field(i)
		if !isZero(f) {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(df.String())
		case reflect.Float64:
			f.SetFloat(df.Float())
		default:
			f.SetInt(df.Int())
		}
	}
	return p
}

// maxTimeoutS is the first timeout_s that Guardrails' conversion to
// nanoseconds overflows: the float64 nearest MaxInt64/1e9 rounds up past
// the exact quotient, so it is refused too.
const maxTimeoutS = math.MaxInt64 / 1e9

// Validate refuses a negative or non-finite numeric knob and a string
// knob its parser does not know (an unknown clock, policy or collective
// algorithm), naming its JSON key. Zero means "the scenario's default",
// and the harnesses read a negative value as unset too: accepting one
// would run — and cache — the default grid under a knob that says
// otherwise. A timeout_s too long for a time.Duration is refused too:
// it would wrap negative and arm no deadline. The CLI and the server
// call it before running or keying anything.
func (p Params) Validate() error {
	pv := fields(&p)
	for i := range knobs {
		r := &knobs[i]
		var v float64
		switch f := pv.Field(i); f.Kind() {
		case reflect.String:
			if s := f.String(); s != "" && r.check != nil {
				if err := r.check(s); err != nil {
					return r.errorf("is %q: %v", s, err)
				}
			}
			continue
		case reflect.Float64:
			v = f.Float()
		default:
			v = float64(f.Int())
		}
		if !(v >= 0) || math.IsInf(v, 1) {
			return r.errorf("is %v: must be finite and not negative", v)
		}
		if r.knob == TimeoutS && v >= maxTimeoutS {
			return r.errorf("is %v: must be below %v, the longest deadline a time.Duration holds", v, maxTimeoutS)
		}
	}
	return nil
}

// Knobs returns the set of knobs p sets: its non-zero fields.
func (p Params) Knobs() Knob {
	var set Knob
	pv := fields(&p)
	for i := range knobs {
		if !isZero(pv.Field(i)) {
			set |= knobs[i].knob
		}
	}
	return set
}

// Keys returns the JSON keys of the knobs in k, in Params field order.
func (k Knob) Keys() []string {
	keys := []string{}
	for i := range knobs {
		if knobs[i].knob&k != 0 {
			keys = append(keys, knobs[i].key)
		}
	}
	return keys
}

// Results returns the knobs of k that bear on a run's result: all but
// those that only bound or speed up the run.
func (k Knob) Results() Knob {
	var set Knob
	for i := range knobs {
		if knobs[i].result {
			set |= knobs[i].knob
		}
	}
	return k & set
}

// CheckReads refuses the first knob of set that none of ss reads, naming
// it and the scenarios. A knob nothing reads cannot change a result, so
// accepting it would only split the result cache (or, on the CLI, let a
// mistyped experiment id pass as the intended run).
func CheckReads(set Knob, ss ...*Scenario) error {
	var read Knob
	for _, s := range ss {
		read |= s.reads
	}
	extra := set &^ read
	if extra == 0 {
		return nil
	}
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.name
	}
	first := &knobs[bits.TrailingZeros32(uint32(extra))]
	return first.errorf("is read by none of %s", strings.Join(names, ", "))
}

// BindFlags registers on fs the flag of every knob that has one, each
// writing its field of p and defaulting to the CLI default.
func BindFlags(fs *flag.FlagSet, p *Params) {
	pv := fields(p)
	for i := range knobs {
		r := &knobs[i]
		if r.flag == "" {
			continue
		}
		switch f := pv.Field(i).Addr().Interface().(type) {
		case *int:
			fs.IntVar(f, r.flag, int(r.def), r.usage)
		case *int64:
			fs.Int64Var(f, r.flag, int64(r.def), r.usage)
		case *float64:
			fs.Float64Var(f, r.flag, r.def, r.usage)
		case *string:
			fs.StringVar(f, r.flag, "", r.usage)
		}
	}
}

// FlagKnobs returns the knobs whose flags were set on fs's command line.
func FlagKnobs(fs *flag.FlagSet) Knob {
	var set Knob
	fs.Visit(func(f *flag.Flag) {
		for i := range knobs {
			if knobs[i].flag == f.Name {
				set |= knobs[i].knob
			}
		}
	})
	return set
}
