package loadgen

import (
	"math"
	"testing"

	"simaibench/internal/dist"
)

// testConfig is a small campaign with every modulation axis enabled.
func testConfig() Config {
	return Config{
		Seed:           42,
		RatePerS:       0.5,
		Jobs:           500,
		Tenants:        8,
		DiurnalAmp:     0.4,
		DiurnalPeriodS: 600,
		BurstFactor:    3,
		BurstMTBS:      400,
		BurstDurS:      60,
		Classes:        DefaultClasses(),
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 500 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if Signature(a) != Signature(b) {
		t.Fatal("signatures differ on identical job lists")
	}
	cfg := testConfig()
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Signature(a) == Signature(c) {
		t.Fatal("different seeds produced identical signatures")
	}
}

func TestGenerateJobInvariants(t *testing.T) {
	jobs, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, j := range jobs {
		if j.ArriveS < last {
			t.Fatalf("job %d arrives at %v before predecessor %v", j.ID, j.ArriveS, last)
		}
		last = j.ArriveS
		if j.Nodes < 1 {
			t.Fatalf("job %d requests %d nodes", j.ID, j.Nodes)
		}
		if !(j.ServiceS > 0) {
			t.Fatalf("job %d service %v", j.ID, j.ServiceS)
		}
		if j.DeadlineS < j.ArriveS+j.ServiceS {
			t.Fatalf("job %d deadline %v before earliest possible finish %v",
				j.ID, j.DeadlineS, j.ArriveS+j.ServiceS)
		}
		if j.Tenant < 0 || j.Tenant >= 8 {
			t.Fatalf("job %d tenant %d", j.ID, j.Tenant)
		}
		if j.Class == "" {
			t.Fatalf("job %d has no class", j.ID)
		}
	}
}

// TestClassMixDoesNotShiftArrivals pins the stream discipline: the
// arrival instants live on their own rng stream, so reweighting the
// class mix must leave every arrival time untouched.
func TestClassMixDoesNotShiftArrivals(t *testing.T) {
	base, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Classes = append([]Class{}, cfg.Classes...)
	cfg.Classes[0].Weight = 5 // drastically reweight the mix
	skewed, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i].ArriveS != skewed[i].ArriveS {
			t.Fatalf("arrival %d shifted under class reweighting: %v vs %v",
				i, base[i].ArriveS, skewed[i].ArriveS)
		}
	}
}

// TestAttributesStableUnderRateChange pins the per-class attribute
// streams: the i-th job of a class keeps its size/service/slack draws
// when the arrival rate changes, because attributes are drawn from the
// class's own stream in acceptance order.
func TestAttributesStableUnderRateChange(t *testing.T) {
	slow, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.RatePerS *= 4
	fast, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type attrs struct {
		nodes          int
		service, slack float64
	}
	perClass := func(jobs []Job) map[string][]attrs {
		m := map[string][]attrs{}
		for _, j := range jobs {
			m[j.Class] = append(m[j.Class], attrs{j.Nodes, j.ServiceS, j.DeadlineS - j.ArriveS - j.ServiceS})
		}
		return m
	}
	a, b := perClass(slow), perClass(fast)
	for class, as := range a {
		bs := b[class]
		n := len(as)
		if len(bs) < n {
			n = len(bs)
		}
		for i := 0; i < n; i++ {
			// Nodes and service are the raw draws; slack is reconstructed
			// from the absolute deadline, so it reassociates with the
			// (different) arrival time — compare within float tolerance.
			if as[i].nodes != bs[i].nodes || as[i].service != bs[i].service ||
				math.Abs(as[i].slack-bs[i].slack) > 1e-9 {
				t.Fatalf("%s job %d attributes changed under rate change: %+v vs %+v",
					class, i, as[i], bs[i])
			}
		}
	}
}

// TestEmpiricalRateTracksConfig sanity-checks the thinning: without
// modulation the realized rate must be close to the configured one.
func TestEmpiricalRateTracksConfig(t *testing.T) {
	cfg := Config{
		Seed: 7, RatePerS: 2, Jobs: 20000, Classes: DefaultClasses(),
	}
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := jobs[len(jobs)-1].ArriveS - jobs[0].ArriveS
	got := float64(len(jobs)-1) / span
	if math.Abs(got-2) > 0.1 {
		t.Fatalf("empirical rate %v, want ~2", got)
	}
}

// TestBurstsRaiseLocalRate verifies the bursty axis actually modulates:
// with a high burst factor the tightest inter-arrival windows should be
// far denser than the base rate alone produces.
func TestBurstsRaiseLocalRate(t *testing.T) {
	base := Config{Seed: 11, RatePerS: 0.5, Jobs: 4000, Classes: DefaultClasses()}
	bursty := base
	bursty.BurstFactor, bursty.BurstMTBS, bursty.BurstDurS = 8, 500, 100
	peak := func(cfg Config) float64 {
		jobs, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Densest 50-job window rate.
		best := 0.0
		for i := 0; i+50 < len(jobs); i++ {
			w := jobs[i+50].ArriveS - jobs[i].ArriveS
			if r := 50 / w; r > best {
				best = r
			}
		}
		return best
	}
	if pb, pp := peak(base), peak(bursty); pp < 2*pb {
		t.Fatalf("burst peak rate %v not clearly above base peak %v", pp, pb)
	}
}

func TestOfferedLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	rate := cfg.RateForLoad(0.9, 64)
	cfg.RatePerS = rate
	// Offered utilization is λ·E[nodes·service]/N.
	if got := cfg.RatePerS * cfg.NodeSecondsPerJob() / 64; math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("offered load %v, want 0.9", got)
	}
	if cfg.NodeSecondsPerJob() <= 0 {
		t.Fatal("non-positive node-seconds per job")
	}
}

func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	ok := testConfig()
	for name, mut := range map[string]func(*Config){
		"zero rate":       func(c *Config) { c.RatePerS = 0 },
		"negative rate":   func(c *Config) { c.RatePerS = -1 },
		"NaN rate":        func(c *Config) { c.RatePerS = math.NaN() },
		"no jobs":         func(c *Config) { c.Jobs = 0 },
		"diurnal amp >=1": func(c *Config) { c.DiurnalAmp = 1 },
		"diurnal no period": func(c *Config) {
			c.DiurnalAmp = 0.5
			c.DiurnalPeriodS = 0
		},
		"burst factor <1": func(c *Config) { c.BurstFactor = 0.5 },
		"burst no mtbs": func(c *Config) {
			c.BurstFactor = 2
			c.BurstMTBS = 0
		},
		"no classes": func(c *Config) { c.Classes = nil },
		"bad class weight": func(c *Config) {
			c.Classes = append([]Class{}, c.Classes...)
			c.Classes[0].Weight = 0
		},
		"nil sampler": func(c *Config) {
			c.Classes = append([]Class{}, c.Classes...)
			c.Classes[0].ServiceS = nil
		},
	} {
		cfg := ok
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted the config", name)
		}
	}
	if _, err := Generate(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDefaultClassesShape(t *testing.T) {
	classes := DefaultClasses()
	if len(classes) != 3 {
		t.Fatalf("%d classes", len(classes))
	}
	// The mix must have meaningful size variance: the large class's
	// footprint dominates the small class's by well over an order of
	// magnitude (what separates size-aware policies from FIFO).
	small, large := classes[0].NodeSeconds(), classes[2].NodeSeconds()
	if large < 10*small {
		t.Fatalf("footprints too close: small %v, large %v", small, large)
	}
	for _, cl := range classes {
		if err := cl.validate(); err != nil {
			t.Errorf("default class %s invalid: %v", cl.Name, err)
		}
	}
	// Sanity: a fixed-node class with a validated sampler keeps mean 1.
	if classes[0].Nodes.(dist.Fixed) != 1 {
		t.Fatalf("table2 class nodes = %v", classes[0].Nodes)
	}
}
