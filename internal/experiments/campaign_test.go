package experiments

import (
	"bytes"
	"math"
	"testing"

	"simaibench/internal/scenario"
)

// campaignTestParams keep the golden/determinism runs quick while
// preserving every regime of the default grid.
var campaignTestParams = scenario.Params{Jobs: 300}

func TestGoldenCampaignScenario(t *testing.T) {
	checkGolden(t, "campaign.golden", renderText(t, "campaign", campaignTestParams))
}

// TestCampaignDeterministicRender is the ×2-run bit-identity contract:
// the campaign is a pure function of its seed, so two full renders —
// arrival generation, scheduling, fault injection, digests — are
// byte-identical.
func TestCampaignDeterministicRender(t *testing.T) {
	a := renderText(t, "campaign", campaignTestParams)
	b := renderText(t, "campaign", campaignTestParams)
	if !bytes.Equal(a, b) {
		t.Errorf("campaign differs across two runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestCampaignArrivalInvariantAcrossPolicies pins the open-loop
// contract: the arrival timeline is generated before scheduling and on
// its own rng streams, so every policy at a fixed (seed, load) faces
// the byte-identical offered workload — including under faults.
func TestCampaignArrivalInvariantAcrossPolicies(t *testing.T) {
	for _, mtbf := range []float64{0, CampaignFaultyMTBFS} {
		var sig uint64
		for i, pol := range campaignPolicies("") {
			pt, err := RunCampaignChecked(CampaignConfig{
				Load: 0.9, Policy: pol, Jobs: 200, MTBFS: mtbf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				sig = pt.ArrivalSig
				continue
			}
			if pt.ArrivalSig != sig {
				t.Errorf("mtbf=%g: policy %s saw arrival signature %x, want %x",
					mtbf, pol, pt.ArrivalSig, sig)
			}
		}
	}
}

// TestCampaignOverloadDifferentiation is the headline acceptance
// criterion: under 20% overload the size-aware policies' p99 slowdown
// is strictly below FIFO's.
func TestCampaignOverloadDifferentiation(t *testing.T) {
	run := func(pol string) CampaignPoint {
		pt, err := RunCampaignChecked(CampaignConfig{Load: 1.2, Policy: pol, Jobs: 400})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	fifo := run("fifo")
	for _, pol := range []string{"srpt", "hermod"} {
		if pt := run(pol); !(pt.SlowP99 < fifo.SlowP99) {
			t.Errorf("%s p99 slowdown %v not below FIFO's %v under overload",
				pol, pt.SlowP99, fifo.SlowP99)
		}
	}
}

// TestCampaignNarrowedParams: -rate and -policy narrow the grid to a
// single cell per fault profile, the scriptable single-point mode.
func TestCampaignNarrowedParams(t *testing.T) {
	s, ok := scenario.Lookup("campaign")
	if !ok {
		t.Fatal("campaign not registered")
	}
	res, err := s.Run(bg, scenario.Params{Jobs: 100, Rate: 0.7, Policy: "srpt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("%d tables, want 2 (healthy + faulty)", len(res.Tables))
	}
	for _, tb := range res.Tables {
		if len(tb.Cells) != len(tb.Columns) {
			t.Errorf("%q has %d cells for %d columns, want 1 row", tb.Title, len(tb.Cells), len(tb.Columns))
		}
	}
	if len(res.Failures) != 0 {
		t.Errorf("unexpected cell failures: %+v", res.Failures)
	}
}

// TestCampaignChecksBadInputs: unknown policies and degenerate loads
// surface as cell errors, not zero-value rows.
func TestCampaignChecksBadInputs(t *testing.T) {
	if _, err := RunCampaignChecked(CampaignConfig{Policy: "lottery"}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Negative/zero loads fall back to the default (the withDefaults
	// convention); NaN is the degenerate value nothing can default.
	if _, err := RunCampaignChecked(CampaignConfig{Load: math.NaN(), Jobs: 10}); err == nil {
		t.Error("NaN load accepted")
	}
}

// TestCampaignFaultyAccounting: the faulty grid must actually injure
// the default-length campaign (crashes and restarts observed) while
// every job still retires.
func TestCampaignFaultyAccounting(t *testing.T) {
	pt, err := RunCampaignChecked(CampaignConfig{
		Load: 0.7, Policy: "fifo", Jobs: 600, MTBFS: CampaignFaultyMTBFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Crashes == 0 {
		t.Error("faulty profile injected no crashes; campaign too short for MTBF")
	}
	if pt.Completed+pt.Dropped != 600 {
		t.Errorf("completed %d + dropped %d != 600", pt.Completed, pt.Dropped)
	}
	if !(pt.Util > 0 && pt.Util <= 1) || !(pt.Fairness > 0 && pt.Fairness <= 1) {
		t.Errorf("util %v / fairness %v out of range", pt.Util, pt.Fairness)
	}
}

// TestCampaignMallocsDoNotScaleWithJobs: a Submit allocates its batch's
// slabs and one arrival callback, and completions re-arm one hold per
// node, so a longer campaign allocates only for its longer job list,
// sample digests and event slab (a 32-slot chunk per 32 arrivals
// pending at once), never once per job.
func TestCampaignMallocsDoNotScaleWithJobs(t *testing.T) {
	const short, long = 500, 2000
	for _, pol := range campaignPolicies("") {
		mallocs := func(jobs int) float64 {
			return testing.AllocsPerRun(2, func() {
				if _, err := RunCampaignChecked(CampaignConfig{Load: 1.2, Policy: pol, Jobs: jobs}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := mallocs(short), mallocs(long)
		if grew := b - a; grew > (long-short)/16 {
			t.Errorf("%s: %d more jobs cost %v more mallocs (%v → %v), want ≤ %d: a per-job allocation is back",
				pol, long-short, grew, a, b, (long-short)/16)
		}
	}
}
