package costmodel

import (
	"math"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

func newModel(nodes int) (*des.Env, *Model) {
	env := des.NewEnv()
	return env, New(env, cluster.Aurora(nodes), Default())
}

// timed starts one modeled operation at the current virtual time — start
// builds it around the done callback it is given and Starts it — runs the
// simulation until it completes and returns the virtual seconds it took.
func timed(t *testing.T, env *des.Env, start func(done func())) float64 {
	t.Helper()
	t0, t1 := env.Now(), math.NaN()
	start(func() { t1 = env.Now() })
	env.Run()
	if math.IsNaN(t1) {
		t.Fatal("the operation never completed")
	}
	return t1 - t0
}

// localWrite and fetchAll time one operation of each kind.
func localWrite(t *testing.T, env *des.Env, m *Model, b datastore.Backend, mb float64) float64 {
	t.Helper()
	return timed(t, env, func(done func()) { m.NewLocalWrite(b, 0, mb, done).Start() })
}

// remoteRead is one uncontended non-local read: its one timed hold.
func remoteRead(b datastore.Backend, mb float64) float64 {
	p := Default()
	return p.RemoteReadCost(b, mb).HoldS
}

func fetchAll(t *testing.T, nodes int, b datastore.Backend, n int, mb float64) float64 {
	t.Helper()
	env, m := newModel(nodes)
	return timed(t, env, func(done func()) { m.NewEnsembleFetch(b, n, mb, done).Start() })
}

func TestUncontendedLocalMatchesAnalytic(t *testing.T) {
	for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.Dragon, datastore.Redis, datastore.FileSystem} {
		for _, mb := range []float64{0.4, 2, 8, 32} {
			env, m := newModel(8)
			got := localWrite(t, env, m, b, mb)
			want := m.AnalyticLocal(b, mb, false)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%v %vMB: DES %v vs analytic %v", b, mb, got, want)
			}
		}
	}
}

func TestReadCheaperThanWrite(t *testing.T) {
	for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.Dragon, datastore.Redis, datastore.FileSystem} {
		env, m := newModel(8)
		w := localWrite(t, env, m, b, 8)
		r := timed(t, env, func(done func()) { m.NewLocalRead(b, 0, 8, done).Start() })
		if r >= w {
			t.Errorf("%v: read %v >= write %v", b, r, w)
		}
	}
}

func TestInMemoryThroughputNonMonotonic(t *testing.T) {
	// Fig 3 shape: throughput rises with size then dips at 32 MB for the
	// in-memory stores (cache spill).
	for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.Dragon, datastore.Redis} {
		tput := func(mb float64) float64 {
			env, m := newModel(8)
			return mb / 1000 / localWrite(t, env, m, b, mb)
		}
		t04, t8, t32 := tput(0.4), tput(8), tput(32)
		if t8 <= t04 {
			t.Errorf("%v: throughput not rising 0.4->8 MB (%v vs %v)", b, t04, t8)
		}
		if t32 >= t8 {
			t.Errorf("%v: no cache dip at 32 MB (%v vs %v)", b, t32, t8)
		}
	}
}

func TestFilesystemThroughputMonotonic(t *testing.T) {
	// Fig 3 shape: file system throughput rises monotonically with size.
	prev := -1.0
	for _, mb := range []float64{0.4, 2, 8, 32} {
		env, m := newModel(8)
		tput := mb / 1000 / localWrite(t, env, m, datastore.FileSystem, mb)
		if tput <= prev {
			t.Fatalf("filesystem throughput not monotonic at %v MB: %v <= %v", mb, tput, prev)
		}
		prev = tput
	}
}

func TestBackendOrderingAtPeak(t *testing.T) {
	// Fig 3: node-local >= dragon > redis for local exchange.
	tput := func(b datastore.Backend) float64 {
		env, m := newModel(8)
		return 8.0 / 1000 / localWrite(t, env, m, b, 8)
	}
	nl, dr, rd := tput(datastore.NodeLocal), tput(datastore.Dragon), tput(datastore.Redis)
	if !(nl >= dr && dr > rd) {
		t.Fatalf("peak ordering violated: node-local %v, dragon %v, redis %v", nl, dr, rd)
	}
}

func TestMDSContentionEmergesAtScale(t *testing.T) {
	// Many concurrent Lustre writers must see queueing delay that a
	// single writer does not — the mechanism behind Fig 3b/4d.
	env, m := newModel(8)
	solo := localWrite(t, env, m, datastore.FileSystem, 2)
	env, m = newModel(512)
	var worst float64
	const writers = 2000
	done := 0
	for i := 0; i < writers; i++ {
		m.NewLocalWrite(datastore.FileSystem, 0, 2, func() {
			worst = max(worst, env.Now()) // every writer started at t=0
			done++
		}).Start()
	}
	env.Run()
	if done != writers {
		t.Fatalf("only %d writers finished", done)
	}
	if worst < 5*solo {
		t.Fatalf("no MDS contention: worst %v vs solo %v", worst, solo)
	}
}

func TestInMemoryLocalUnaffectedByScale(t *testing.T) {
	// Fig 3: in-memory stores exchange data locally, so per-op time is
	// scale-independent (8 vs 512 nodes) when each node carries the same
	// local load.
	dur := func(nodes int) float64 {
		env, m := newModel(nodes)
		return localWrite(t, env, m, datastore.NodeLocal, 8)
	}
	if d8, d512 := dur(8), dur(512); math.Abs(d8-d512) > 1e-12 {
		t.Fatalf("node-local op time varies with scale: %v vs %v", d8, d512)
	}
}

func TestRemoteRedisReadPoor(t *testing.T) {
	// Fig 5a: Redis non-local read throughput far below Dragon's.
	redis := remoteRead(datastore.Redis, 8)
	dragon := remoteRead(datastore.Dragon, 8)
	if redis < 3*dragon {
		t.Fatalf("redis remote read (%v) should be >> dragon (%v)", redis, dragon)
	}
}

func TestDragonRemotePeaksNearWindow(t *testing.T) {
	// Fig 5: Dragon throughput peaks around ~10 MB then declines.
	tput := func(mb float64) float64 {
		return mb / 1000 / remoteRead(datastore.Dragon, mb)
	}
	t1, t10, t128 := tput(1), tput(10), tput(128)
	if t10 <= t1 {
		t.Fatalf("dragon throughput not rising to window: %v vs %v", t1, t10)
	}
	if t128 >= t10 {
		t.Fatalf("dragon throughput not declining past window: %v vs %v", t128, t10)
	}
}

func TestFSRemoteCatchesDragonAtLargeSizes(t *testing.T) {
	// Fig 5: FS throughput grows with size, becoming comparable to
	// Dragon at the largest messages.
	ratio := func(mb float64) float64 {
		fs := remoteRead(datastore.FileSystem, mb)
		dr := remoteRead(datastore.Dragon, mb)
		return fs / dr // >1 means FS slower
	}
	small, large := ratio(1), ratio(128)
	if small < 1.2 {
		t.Fatalf("FS should lag dragon at small sizes: ratio %v", small)
	}
	if large >= small/1.5 {
		t.Fatalf("FS/dragon gap should shrink with size: %v -> %v", small, large)
	}
}

func TestFetchAllBlocksForAllMessages(t *testing.T) {
	one := fetchAll(t, 8, datastore.Dragon, 1, 4)
	many := fetchAll(t, 8, datastore.Dragon, 64, 4)
	if many <= one {
		t.Fatalf("64-message fetch (%v) not slower than 1-message (%v)", many, one)
	}
}

func TestManyToOneSmallMessagesDragonSlowerThanFS(t *testing.T) {
	// Fig 6b: at 128 nodes and small messages, Dragon's per-message
	// latency makes the ensemble read significantly slower than FS.
	fetch := func(b datastore.Backend, mb float64) float64 {
		return fetchAll(t, 128, b, 128, mb)
	}
	drSmall, fsSmall := fetch(datastore.Dragon, 1), fetch(datastore.FileSystem, 1)
	if drSmall < 2*fsSmall {
		t.Fatalf("dragon (%v) should be >=2x slower than FS (%v) at 1 MB many-to-one", drSmall, fsSmall)
	}
	// ...and comparable at large sizes.
	drBig, fsBig := fetch(datastore.Dragon, 128), fetch(datastore.FileSystem, 128)
	ratio := drBig / fsBig
	if ratio > 2.5 || ratio < 0.4 {
		t.Fatalf("dragon/FS at 128 MB should be comparable, got ratio %v (%v vs %v)", ratio, drBig, fsBig)
	}
}

func TestRedisWorstForManyToOne(t *testing.T) {
	// Fig 6: Redis remains the slowest backend at scale.
	fetch := func(b datastore.Backend) float64 {
		return fetchAll(t, 128, b, 128, 8)
	}
	rd, dr, fs := fetch(datastore.Redis), fetch(datastore.Dragon), fetch(datastore.FileSystem)
	if rd <= dr || rd <= fs {
		t.Fatalf("redis (%v) should be slowest (dragon %v, fs %v)", rd, dr, fs)
	}
}

func TestNICBoundsAggregateFetchRate(t *testing.T) {
	// Total fetch time can never beat the NIC injection bound N*S/BW.
	const n, mb = 128, 64.0
	got := fetchAll(t, 128, datastore.FileSystem, n, mb)
	nicFloor := float64(n) * mb / 1000 / cluster.Aurora(128).NICGBps
	if got < nicFloor*0.99 {
		t.Fatalf("fetch %v beat NIC floor %v", got, nicFloor)
	}
}

func TestCacheEffMonotoneDecline(t *testing.T) {
	p := Default()
	prev := math.Inf(1)
	for _, mb := range []float64{1, 8, 16, 32, 64, 128} {
		eff := p.cacheEff(2.5, mb)
		if eff > prev+1e-12 {
			t.Fatalf("cacheEff increased at %v MB", mb)
		}
		if eff > 2.5 || eff <= 0 {
			t.Fatalf("cacheEff out of range: %v", eff)
		}
		prev = eff
	}
	if p.cacheEff(2.5, 4) != 2.5 {
		t.Fatal("cacheEff should be flat below the share")
	}
}

func TestNodeLocalHasNoRemoteModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("node-local remote read did not panic (tmpfs is not remotely readable, per the paper)")
		}
	}()
	remoteRead(datastore.NodeLocal, 1)
}

// TestFig5PairEndsAtClosedForm: Fig 5's pair — a local write on node 0,
// then a non-local read holding the trainer NIC — run on a fresh Env
// completes at exactly (==, not within a tolerance) the times that
// adding its phases up in chain order gives. That sum is what
// experiments.RunFig5Checked computes instead of running the chain.
func TestFig5PairEndsAtClosedForm(t *testing.T) {
	closedForm := func(now float64, c XferCost) float64 {
		for range c.MetaOps {
			now += c.RPCS
			now += c.MDSS
		}
		return now + c.HoldS
	}
	for _, b := range datastore.Backends() {
		for _, mb := range []float64{0.4, 1, 4, 10, 32, 128} { // experiments.Fig5Sizes
			env, m := newModel(2)
			var wrote, read float64
			write := m.params.LocalCost(b, mb, false)
			m.NewLocalWrite(b, 0, mb, func() {
				wrote = env.Now()
				if b == datastore.NodeLocal {
					return // no remote read (TestNodeLocalHasNoRemoteModel)
				}
				_, bw, _ := m.params.remoteParams(b, mb)
				nic, hold := m.nic(b, bw), m.params.RemoteReadCost(b, mb).HoldS
				nic.Request(func() {
					env.After(hold, func() {
						nic.Release()
						read = env.Now()
					})
				})
			}).Start()
			env.Run()
			want := closedForm(0, write)
			if wrote != want {
				t.Errorf("%v %v MB: write ends at %v, closed form %v", b, mb, wrote, want)
			}
			if b == datastore.NodeLocal {
				continue
			}
			if want = closedForm(want, m.params.RemoteReadCost(b, mb)); read != want {
				t.Errorf("%v %v MB: read ends at %v, closed form %v", b, mb, read, want)
			}
		}
	}
}

// TestLocalXferBuildsOneClosure: every phase of a transfer runs on the
// one step closure, so building one costs that closure and nothing
// else (the transfer itself comes out of the model's arena, one chunk
// per 64). The file-system chain, with five phases of its own, is held
// to the same count as an in-memory transfer.
func TestLocalXferBuildsOneClosure(t *testing.T) {
	for _, b := range []datastore.Backend{datastore.FileSystem, datastore.NodeLocal} {
		_, m := newModel(8)
		for range xferArenaMaxChunk {
			m.NewLocalWrite(b, 0, 8, func() {}) // grow the arena's chunks to full size
		}
		done := func() {}
		if got := testing.AllocsPerRun(10*xferArenaMaxChunk, func() { m.NewLocalWrite(b, 0, 8, done) }); got != 1 {
			t.Errorf("%v: building a LocalXfer costs %v allocations, want 1 (its step closure)", b, got)
		}
	}
}
