package costmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// The MDS queue against the chain it replaced: each metadata round an
// RPC event (AfterRow(RPCS)), a RequestRow on a capacity-1 des.Resource,
// a service event (AfterRow(MDSS)) and a Release before the round's
// continuation. Both serve the same claimants, and the service order,
// every start and end, and the queue's whole des.QueueStats must be ==.

// mdsStream is one random arrival stream: claimants that start their
// metadata rounds at given times, each on one of the RPC delays.
type mdsStream struct {
	rpcS  []float64 // one per ring
	svcS  float64
	claim []mdsClaimant
}

type mdsClaimant struct {
	at     float64
	ring   int
	rounds int
}

// mdsService is one served round.
type mdsService struct {
	ring, row, round int
	start, end       float64
}

// randomMDSStream draws a stream: 1-3 RPC delays (or all zero), a
// service time below or above them (or zero), and claimants in bursts (several at one instant, on
// different rings), back to back or after idle gaps. Half the streams
// keep every time on a 1/1024 s grid, so that arrivals from different
// rings tie exactly.
func randomMDSStream(rng *rand.Rand) mdsStream {
	grid := rng.Intn(2) == 0
	draw := func(lo, hi float64) float64 {
		x := lo + rng.Float64()*(hi-lo)
		if grid {
			x = float64(int(x*1024)+1) / 1024
		}
		return x
	}
	s := mdsStream{svcS: draw(0.0001, 0.004)}
	for range 1 + rng.Intn(3) {
		s.rpcS = append(s.rpcS, draw(0, 0.003))
	}
	switch rng.Intn(8) {
	case 0:
		s.svcS = 0
	case 1: // RPCS = 0: every ring's delay is 0, as LocalCost scales one RPCS
		for i := range s.rpcS {
			s.rpcS[i] = 0
		}
	}
	now := 0.0
	for range 1 + rng.Intn(12) {
		switch rng.Intn(3) {
		case 0: // idle gap
			now += draw(0.01, 0.05)
		case 1:
			now += draw(0, 0.003)
		}
		for range 1 + rng.Intn(6) {
			s.claim = append(s.claim, mdsClaimant{at: now, ring: rng.Intn(len(s.rpcS)), rounds: rng.Intn(4)})
		}
	}
	return s
}

// mdsStarter fires claimant row's first round at its start time.
type mdsStarter struct {
	fired int
	start func(row int32)
}

func (d *mdsStarter) Fire(row int32) { d.fired++; d.start(row) }

// schedule arms every claimant's start, in claimant order.
func (d *mdsStarter) schedule(env *des.Env, s mdsStream) {
	for i, c := range s.claim {
		env.AtRow(c.at, d, int32(i))
	}
}

// refMDS is the replaced chain: rows are claimants, phase 0 an RPC in
// flight, 1 queued or granted, 2 in service.
type refMDS struct {
	env   *des.Env
	s     mdsStream
	res   *des.Resource
	round []int
	phase []int
	start []float64
	log   []mdsService
}

func (r *refMDS) next(row int32) {
	if r.round[row] == r.s.claim[row].rounds {
		return
	}
	r.phase[row] = 0
	r.env.AfterRow(r.s.rpcS[r.s.claim[row].ring], r, row)
}

func (r *refMDS) Fire(row int32) {
	switch r.phase[row] {
	case 0:
		r.phase[row] = 1
		r.res.RequestRow(r, row)
	case 1:
		r.phase[row], r.start[row] = 2, r.env.Now()
		r.env.AfterRow(r.s.svcS, r, row)
	case 2:
		r.log = append(r.log, mdsService{r.s.claim[row].ring, int(row), r.round[row], r.start[row], r.env.Now()})
		r.round[row]++
		r.res.Release()
		r.next(row)
	}
}

func runRefMDS(s mdsStream) ([]mdsService, des.QueueStats) {
	env := des.NewEnv()
	r := &refMDS{env: env, s: s, res: des.NewResource(env, 1),
		round: make([]int, len(s.claim)), phase: make([]int, len(s.claim)), start: make([]float64, len(s.claim))}
	d := &mdsStarter{start: r.next}
	d.schedule(env, s)
	env.Run()
	return r.log, r.res.Stats()
}

// mdsTable is a client table of the queue under test: one per ring, as
// each XferTable has one RPC delay.
type mdsTable struct {
	tab, ring int32
	run       *mdsRun
}

func (c *mdsTable) next(row int32) {
	r := c.run
	r.log = append(r.log, mdsService{r.s.claim[row].ring, int(row), r.round[row], r.q.started, r.env.Now()})
	r.round[row]++
	if p := r.mdsPending(); p != 0 {
		r.t.Fatalf("%d other MDS events pending at a service end", p)
	}
	c.begin(row)
}

// begin claims row's next round, if it has one left.
func (c *mdsTable) begin(row int32) {
	if c.run.round[row] < c.run.s.claim[row].rounds {
		c.run.q.claim(c.tab, c.ring, row)
	}
}

// mdsRun drives the queue under test.
type mdsRun struct {
	t       *testing.T
	env     *des.Env
	s       mdsStream
	q       *mdsQueue
	starter *mdsStarter
	round   []int
	log     []mdsService
}

// mdsPending is the number of the queue's events in the heap: all of
// them but the starts still to fire.
func (r *mdsRun) mdsPending() int {
	return r.env.Pending() - (len(r.s.claim) - r.starter.fired)
}

func runMDSQueue(t *testing.T, s mdsStream) ([]mdsService, des.QueueStats) {
	env := des.NewEnv()
	q := &mdsQueue{env: env, svcS: s.svcS}
	r := &mdsRun{t: t, env: env, s: s, q: q, round: make([]int, len(s.claim))}
	tables := make([]*mdsTable, len(s.rpcS))
	for i, d := range s.rpcS {
		tables[i] = &mdsTable{run: r}
		tables[i].tab, tables[i].ring = q.register(tables[i], d)
	}
	r.starter = &mdsStarter{start: func(row int32) {
		if p := r.mdsPending(); p > 1 {
			t.Fatalf("%d MDS events pending", p)
		}
		tables[s.claim[row].ring].begin(row)
	}}
	r.starter.schedule(env, s)
	env.Run()
	if q.busy || q.waking {
		t.Fatal("the queue is not idle once the run drains")
	}
	return r.log, q.stats()
}

func checkMDSStream(t *testing.T, s mdsStream) {
	t.Helper()
	want, wantStats := runRefMDS(s)
	got, gotStats := runMDSQueue(t, s)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d services, reference %d", s, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%+v: service %d is %+v, reference %+v", s, i, got[i], want[i])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("%+v: stats %+v; reference %+v", s, gotStats, wantStats)
	}
}

// TestMDSQueueMatchesResourceChain holds the queue to the replaced chain
// over 600 seeded random arrival streams.
func TestMDSQueueMatchesResourceChain(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := range 600 {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkMDSStream(t, randomMDSStream(rng)) })
	}
}

// FuzzMDSQueue walks the same space from fuzzed seeds. CI runs it as a
// 10 s smoke (`go test -run FuzzMDSQueue -fuzz=FuzzMDSQueue
// -fuzztime=10s ./internal/costmodel/`).
func FuzzMDSQueue(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 47} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkMDSStream(t, randomMDSStream(rand.New(rand.NewSource(seed))))
	})
}

// TestMDSAvgWaitCountsTheServiceInProgress: a run cut while a round is
// in service reports the wait the replaced Resource did, which counted
// a grant when it was made.
func TestMDSAvgWaitCountsTheServiceInProgress(t *testing.T) {
	env, m := newModel(1)
	x := m.NewXferTable(datastore.FileSystem, 3, 3, 1, false, false, des.Func(func() {}))
	for row := range int32(3) {
		x.Start(row)
	}
	p := Default()
	// All three RPCs land at a; the third round is in service from e2 on.
	a := p.LustreClientRPCS
	e1 := a + p.LustreMDSServiceS
	e2 := e1 + p.LustreMDSServiceS
	env.RunUntil(a + 2.5*p.LustreMDSServiceS)
	want := (0 + (e1 - a) + (e2 - a)) / 3
	if got := m.SharedWaitS(datastore.FileSystem); got != want {
		t.Fatalf("mid-service wait %v, want %v", got, want)
	}
}
