package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
)

// smallOneToOne is a mini-app run short enough for the wall clock:
// 200 training iterations of 61 µs, a snapshot every 20 solver steps.
func smallOneToOne(backend datastore.Backend, clk string) OneToOneConfig {
	cfg := validationRun(MiniApp, scenario.Params{TrainIters: 200, TimeScale: 0.001, Clock: clk})
	cfg.WritePeriod, cfg.ReadPeriod = 20, 5
	cfg.ArrayBytes = []int{4096, 4096 / 8}
	cfg.Backend = backend
	cfg.SimInitS, cfg.TrainInitS = 0, 0
	return cfg
}

// hookedStore calls before on every staging operation; a non-nil
// result is returned in place of the operation.
type hookedStore struct {
	datastore.Store
	before func(op, key string) error
}

func (s hookedStore) StageWrite(key string, v []byte) error {
	if err := s.before("write", key); err != nil {
		return err
	}
	return s.Store.StageWrite(key, v)
}

func (s hookedStore) StageRead(key string) ([]byte, error) {
	if err := s.before("read", key); err != nil {
		return nil, err
	}
	return s.Store.StageRead(key)
}

func (s hookedStore) StageReadInto(key string, dst []byte) ([]byte, error) {
	if err := s.before("read", key); err != nil {
		return nil, err
	}
	return s.Store.StageReadInto(key, dst)
}

func (s hookedStore) Poll(key string) (bool, error) {
	if err := s.before("poll", key); err != nil {
		return false, err
	}
	return s.Store.Poll(key)
}

// runHooked runs cfg on a deployment of its own with before wrapped
// around both components' stores, failing the test if the workflow has
// not returned after 5 s (the solver of the old CLI loop never looked at
// its context, so a dead trainer left it spinning forever).
func runHooked(t *testing.T, cfg OneToOneConfig, before func(mgr *datastore.ServerManager, op, key string) error) error {
	t.Helper()
	clk, err := clock.FromKind(cfg.Clock)
	if err != nil {
		t.Fatal(err)
	}
	// A manager-owned directory: Stop removes it, as it closes servers.
	mgr, info, err := datastore.StartBackend(cfg.Backend, "")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	connect := func() (datastore.Store, error) {
		s, err := datastore.Connect(info)
		if err != nil {
			return nil, err
		}
		return hookedStore{s, func(op, key string) error { return before(mgr, op, key) }}, nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := runOneToOne(bg, cfg, clk, connect)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("workflow still running after 5 s")
		return nil
	}
}

// TestOneToOneFailingTrainerStopsSolver: a component that errors
// mid-run ends the workflow with its error on both clocks, and the
// others stop instead of hanging. A failing trainer (its third snapshot
// read fails) stops the lone solver or every ensemble member: each sees
// the cancelled context at its next stop poll instead of waiting for a
// stop key that will never come. A failing member (its third array
// write fails) stops the ensemble's trainer, which looks at its context
// on every poll of a head that has not moved.
func TestOneToOneFailingTrainerStopsSolver(t *testing.T) {
	boom := errors.New("loader exploded")
	for _, tc := range []struct {
		name      string
		ensemble  int
		op, key   string // the failing operation and its key prefix
		component string
	}{
		{"", 0, "read", "data/", "train"},
		{"/ensemble", 4, "read", "member1/data/", "train"},
		{"/ensemble-member", 4, "write", "member2/data/", "sim2"},
	} {
		for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
			t.Run(clk+tc.name, func(t *testing.T) {
				cfg := smallOneToOne(datastore.NodeLocal, clk)
				cfg.Ensemble = tc.ensemble
				var n atomic.Int32
				err := runHooked(t, cfg, func(_ *datastore.ServerManager, op, key string) error {
					if op == tc.op && strings.HasPrefix(key, tc.key) && n.Add(1) == 3 {
						return boom
					}
					return nil
				})
				if !errors.Is(err, boom) || !strings.Contains(err.Error(), "component "+tc.component+":") {
					t.Fatalf("error = %v, want component %s's", err, tc.component)
				}
			})
		}
	}
}

// TestOneToOneDeadBackendIsAnError: a deployment that goes away mid-run
// (stopped as the solver publishes its second head pointer) is an error
// naming a key, not a trainer that reads every failure as "nothing
// staged yet" beside a solver that drops its poll errors. On the wall
// clock a loaded host can starve the solver until the trainer has run
// all its iterations, so the trainer's stop signal stops the deployment
// too if it comes first.
func TestOneToOneDeadBackendIsAnError(t *testing.T) {
	for _, backend := range []datastore.Backend{datastore.Redis, datastore.NodeLocal} {
		for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
			t.Run(backend.String()+"/"+clk, func(t *testing.T) {
				var (
					heads atomic.Int32
					stop  sync.Once
				)
				err := runHooked(t, smallOneToOne(backend, clk),
					func(mgr *datastore.ServerManager, op, key string) error {
						if op == "write" && (key == keyHead && heads.Add(1) == 2 || key == keyStop) {
							stop.Do(func() { mgr.Stop() })
						}
						return nil
					})
				if err == nil || !(strings.Contains(err.Error(), "control/") || strings.Contains(err.Error(), "data/")) {
					t.Fatalf("error = %v, want one naming the key that could not be reached", err)
				}
			})
		}
	}
}

// TestOneToOneCleansWhatItConsumed: when the run ends, no snapshot the
// trainer read — nor any older one it skipped — is still staged, on
// either clock, for a lone solver and for each member of an ensemble;
// what remains of the lone solver's is only what it wrote after the
// trainer's last read. The removals are not transport events.
func TestOneToOneCleansWhatItConsumed(t *testing.T) {
	for _, ensemble := range []int{0, 4} {
		for _, backend := range []datastore.Backend{datastore.Redis, datastore.Dragon, datastore.NodeLocal} {
			for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
				name := backend.String() + "/" + clk
				if ensemble > 1 {
					name += "/ensemble"
				}
				t.Run(name, func(t *testing.T) {
					cfg := smallOneToOne(backend, clk)
					cfg.Ensemble = ensemble
					c, err := clock.FromKind(clk)
					if err != nil {
						t.Fatal(err)
					}
					mgr, info, err := datastore.StartBackend(backend, "")
					if err != nil {
						t.Fatal(err)
					}
					defer mgr.Stop()
					var mu sync.Mutex
					newest := map[string]int{} // per key prefix: newest snapshot step the trainer read
					connect := func() (datastore.Store, error) {
						s, err := datastore.Connect(info)
						if err != nil {
							return nil, err
						}
						return hookedStore{s, func(op, key string) error {
							prefix, rest, _ := strings.Cut(key, "data/")
							var step int
							if _, err := fmt.Sscanf(rest, "%d/", &step); op == "read" && err == nil {
								mu.Lock()
								newest[prefix] = max(newest[prefix], step)
								mu.Unlock()
							}
							return nil
						}}, nil
					}
					res, err := runOneToOne(bg, cfg, c, connect)
					if err != nil {
						t.Fatal(err)
					}
					s, err := datastore.Connect(info)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					// Poll every key the trainer should have removed and,
					// for the lone solver, every one it could have staged,
					// one snapshot past its last.
					written := res.Sim.Iterations / cfg.WritePeriod
					for _, m := range cfg.members() {
						read := newest[m.prefix]
						if read == 0 {
							t.Fatalf("the trainer read no snapshot of %q: nothing to check", m.name)
						}
						data := 0
						for step := cfg.WritePeriod; step <= max(read, (written+1)*cfg.WritePeriod); step += cfg.WritePeriod {
							for a := range cfg.ArrayBytes {
								k := dataKey(m.prefix, step, a)
								staged, err := s.Poll(k)
								if err != nil {
									t.Fatal(err)
								}
								if !staged {
									continue
								}
								data++
								if step <= read {
									t.Errorf("%s still staged after the trainer read step %d", k, read)
								}
							}
						}
						if want := 2 * (written - read/cfg.WritePeriod); ensemble <= 1 && data != want {
							t.Errorf("%d data keys staged, want %d (the %d snapshots after step %d)", data, want, want/2, read)
						}
					}
				})
			}
		}
	}
}

// TestEnsembleReadsMatchFig6: on the virtual clock, with members that
// write faster than the trainer reads, the real-stack ensemble trainer
// reads one array from every member in every read period: the fetches
// Fig 6's closed form charges a period (EnsembleFetchCost(…).N), and
// no more. Two runs agree field for field. The makespans are not
// compared, since the real stack's transfers take no pads from
// costmodel.Params.
func TestEnsembleReadsMatchFig6(t *testing.T) {
	cfg := smallOneToOne(datastore.Redis, clock.KindVirtual)
	// A member writes every 2 × 0.03147 s, the trainer reads every
	// 5 × 0.061 s.
	cfg.Ensemble, cfg.TrainIters, cfg.WritePeriod = 4, 60, 2
	cfg.ArrayBytes = cfg.ArrayBytes[:1]
	periods := cfg.TrainIters / cfg.ReadPeriod
	p := costmodel.Default()
	fetch := p.EnsembleFetchCost(cfg.Backend, cfg.Ensemble, float64(cfg.ArrayBytes[0])/1e6, cluster.Aurora(cfg.Ensemble+1).NICGBps)
	if want := cfg.Ensemble * len(cfg.ArrayBytes) * periods; fetch.N*periods != want {
		t.Fatalf("Fig 6 charges %d fetches in %d periods, want %d", fetch.N*periods, periods, want)
	}
	var runs [2]OneToOneResult
	for i := range runs {
		r, err := RunOneToOne(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Train.Reads != fetch.N*periods {
			t.Errorf("run %d: the trainer read %d arrays, want %d (%d per period)", i, r.Train.Reads, fetch.N*periods, fetch.N)
		}
		if r.Sim.Writes <= r.Train.Reads/cfg.Ensemble {
			t.Errorf("run %d: member 0 wrote %d snapshots, want more than the trainer read", i, r.Sim.Writes)
		}
		runs[i] = r
	}
	a, b := runs[0], runs[1]
	if a.Sim != b.Sim || a.Train != b.Train || a.MakespanS != b.MakespanS ||
		!reflect.DeepEqual(sortedSpans(a.Timeline), sortedSpans(b.Timeline)) {
		t.Errorf("two runs differ:\n%+v %+v %v\n%+v %+v %v", a.Sim, a.Train, a.MakespanS, b.Sim, b.Train, b.MakespanS)
	}
}

// TestOneToOneCorruptHead: a head pointer that is not a step number
// fails the trainer through headStep, naming the value.
func TestOneToOneCorruptHead(t *testing.T) {
	cfg := smallOneToOne(datastore.NodeLocal, clock.KindVirtual)
	cfg.WritePeriod = math.MaxInt32 // the solver never overwrites it
	mgr, info, err := datastore.StartBackend(cfg.Backend, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	connect := func() (datastore.Store, error) { return datastore.Connect(info) }
	s, err := connect()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StageWrite(keyHead, []byte("12x")); err != nil {
		t.Fatal(err)
	}
	if _, err := runOneToOne(bg, cfg, clock.NewVirtual(), connect); err == nil || !strings.Contains(err.Error(), `"12x"`) {
		t.Fatalf("error = %v, want one naming the corrupt head", err)
	}
}

// TestOneToOneRejectsBadKnobs: every value that would hang the workflow
// (a zero period panics one component while the other waits for it) or
// stage nothing is refused by name before anything is deployed.
func TestOneToOneRejectsBadKnobs(t *testing.T) {
	for knob, mutate := range map[string]func(*OneToOneConfig){
		"TrainIters":    func(c *OneToOneConfig) { c.TrainIters = 0 },
		"WritePeriod":   func(c *OneToOneConfig) { c.WritePeriod = 0 },
		"-write-period": func(c *OneToOneConfig) { c.WritePeriod = -3 },
		"ReadPeriod":    func(c *OneToOneConfig) { c.ReadPeriod = 0 },
		"-members":      func(c *OneToOneConfig) { c.Ensemble = -1 },
		"ArrayBytes":    func(c *OneToOneConfig) { c.ArrayBytes = nil },
		"ArrayBytes[1]": func(c *OneToOneConfig) { c.ArrayBytes = []int{64, 7} },
		"TimeScale":     func(c *OneToOneConfig) { c.TimeScale = 0 },
		"-time-scale":   func(c *OneToOneConfig) { c.TimeScale = math.NaN() },
		"TimeScale (":   func(c *OneToOneConfig) { c.TimeScale = math.Inf(1) },
		"clock":         func(c *OneToOneConfig) { c.Clock = "sundial" },
	} {
		cfg := smallOneToOne(datastore.NodeLocal, clock.KindVirtual)
		mutate(&cfg)
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		_, err := RunOneToOne(ctx, cfg)
		cancel()
		if err == nil || !strings.Contains(err.Error(), knob) {
			t.Errorf("%s: error = %v, want one naming the knob", knob, err)
		}
	}
}

// TestOneToOneLossPinned: the training loss of a short virtual-clock
// run, in both validation modes, is these bits. No table digest holds a
// loss, so this is what catches a dense layer, a target or a loader
// that computes a different number.
func TestOneToOneLossPinned(t *testing.T) {
	want := map[ValidationMode][2]uint64{
		Original: {0x3fd44306a3266b08, 0x3fd117ab0d4348a1},
		MiniApp:  {0x3fd410890018912a, 0x3fce6f87cc51aeb6},
	}
	for _, mode := range []ValidationMode{Original, MiniApp} {
		cfg := validationRun(mode, scenario.Params{TrainIters: 120, TimeScale: 0.002})
		cfg.WritePeriod, cfg.ReadPeriod = 25, 5
		cfg.ArrayBytes = []int{20_000, 20_000 / 8}
		cfg.Backend = datastore.NodeLocal
		r, err := RunOneToOne(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Train.Reads == 0 {
			t.Fatalf("%v: the trainer read no snapshot, so the loader went untested", mode)
		}
		got := [2]uint64{math.Float64bits(r.Train.LossMean), math.Float64bits(r.Train.LastLoss)}
		if got != want[mode] {
			t.Errorf("%v: LossMean, LastLoss = %v, %v (%#x, %#x), want %#x, %#x",
				mode, r.Train.LossMean, r.Train.LastLoss, got[0], got[1], want[mode][0], want[mode][1])
		}
	}
}
