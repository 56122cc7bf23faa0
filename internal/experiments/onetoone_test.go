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
	"simaibench/internal/datastore"
)

// smallOneToOne is a mini-app run short enough for the wall clock:
// 200 training iterations of 61 µs, a snapshot every 20 solver steps.
func smallOneToOne(backend datastore.Backend, clk string) OneToOneConfig {
	cfg := ValidationConfig{
		Mode: MiniApp, TrainIters: 200, WritePeriod: 20, ReadPeriod: 5,
		PayloadBytes: 4096, TimeScale: 0.001, Backend: backend, Clock: clk,
	}.withDefaults().oneToOne()
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

// TestOneToOneFailingTrainerStopsSolver: a trainer that errors mid-run
// (its third snapshot read fails) ends the workflow with that error on
// both clocks — the solver sees the cancelled context at its next stop
// poll instead of waiting for a stop key that will never come.
func TestOneToOneFailingTrainerStopsSolver(t *testing.T) {
	boom := errors.New("loader exploded")
	for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
		t.Run(clk, func(t *testing.T) {
			var reads atomic.Int32
			err := runHooked(t, smallOneToOne(datastore.NodeLocal, clk),
				func(_ *datastore.ServerManager, op, key string) error {
					if op == "read" && strings.HasPrefix(key, "data/") && reads.Add(1) == 3 {
						return boom
					}
					return nil
				})
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), "component train") {
				t.Fatalf("error = %v, want the trainer's", err)
			}
		})
	}
}

// TestOneToOneDeadBackendIsAnError: a deployment that goes away mid-run
// (stopped as the solver publishes its second head pointer) is an error
// naming a key, not a trainer that reads every failure as "nothing
// staged yet" beside a solver that drops its poll errors.
func TestOneToOneDeadBackendIsAnError(t *testing.T) {
	for _, backend := range []datastore.Backend{datastore.Redis, datastore.NodeLocal} {
		for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
			t.Run(backend.String()+"/"+clk, func(t *testing.T) {
				var heads atomic.Int32
				err := runHooked(t, smallOneToOne(backend, clk),
					func(mgr *datastore.ServerManager, op, key string) error {
						if op == "write" && key == keyHead && heads.Add(1) == 2 {
							mgr.Stop()
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
// either clock; what remains is only what the solver wrote after the
// trainer's last read. The removals are not transport events.
func TestOneToOneCleansWhatItConsumed(t *testing.T) {
	for _, backend := range []datastore.Backend{datastore.Redis, datastore.NodeLocal} {
		for _, clk := range []string{clock.KindVirtual, clock.KindWall} {
			t.Run(backend.String()+"/"+clk, func(t *testing.T) {
				cfg := smallOneToOne(backend, clk)
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
				newest := 0 // newest snapshot step the trainer read
				connect := func() (datastore.Store, error) {
					s, err := datastore.Connect(info)
					if err != nil {
						return nil, err
					}
					return hookedStore{s, func(op, key string) error {
						var step int
						if _, err := fmt.Sscanf(key, "data/%d/", &step); op == "read" && err == nil {
							mu.Lock()
							newest = max(newest, step)
							mu.Unlock()
						}
						return nil
					}}, nil
				}
				res, err := runOneToOne(bg, cfg, c, connect)
				if err != nil {
					t.Fatal(err)
				}
				if newest == 0 {
					t.Fatal("the trainer read no snapshot: nothing to check")
				}
				s, err := datastore.Connect(info)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				keys, err := s.Keys()
				if err != nil {
					t.Fatal(err)
				}
				written := res.Sim.Iterations / cfg.WritePeriod
				data := 0
				for _, k := range keys {
					var step int
					if _, err := fmt.Sscanf(k, "data/%d/", &step); err != nil {
						continue
					}
					data++
					if step <= newest {
						t.Errorf("%s still staged after the trainer read step %d", k, newest)
					}
				}
				if want := 2 * (written - newest/cfg.WritePeriod); data != want {
					t.Errorf("%d data keys staged, want %d (the %d snapshots after step %d)", data, want, want/2, newest)
				}
			})
		}
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

// TestOneToOneIsValidation: RunValidation is RunOneToOne on the inputs
// ValidationConfig derives, reduced to SideStats — field for field, in
// both modes, on the virtual clock where runs repeat exactly.
func TestOneToOneIsValidation(t *testing.T) {
	for _, mode := range []ValidationMode{Original, MiniApp} {
		for _, seed := range []int64{1, 5} {
			cfg := ValidationConfig{Mode: mode, TrainIters: 120, WritePeriod: 25, ReadPeriod: 5,
				PayloadBytes: 20_000, Backend: datastore.NodeLocal, Seed: seed}
			v, err := RunValidation(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunOneToOne(bg, cfg.withDefaults().oneToOne())
			if err != nil {
				t.Fatal(err)
			}
			want := ValidationResult{
				Mode:      mode,
				Sim:       SideStats{r.Sim.Iterations, r.Sim.Writes + r.Sim.Reads, r.Sim.IterMean, r.Sim.IterStd},
				Train:     SideStats{r.Train.Iterations, r.Train.Reads, r.Train.IterMean, r.Train.IterStd},
				MakespanS: r.MakespanS,
			}
			got := *v
			got.Timeline = nil
			if got != want {
				t.Errorf("%v seed %d: RunValidation = %+v, RunOneToOne gives %+v", mode, seed, got, want)
			}
			if r.Train.Reads == 0 || r.Sim.Writes != 2*(r.Sim.Iterations/25) {
				t.Errorf("%v seed %d: run staged nothing to compare: %+v / %+v", mode, seed, r.Sim, r.Train)
			}
			if !reflect.DeepEqual(sortedSpans(v), sortedSpans(&ValidationResult{Timeline: r.Timeline})) {
				t.Errorf("%v seed %d: timelines differ", mode, seed)
			}
		}
	}
}
