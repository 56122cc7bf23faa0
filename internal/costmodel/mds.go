package costmodel

import "simaibench/internal/des"

// mdsQueue is the Lustre metadata server: a FIFO single server of
// metadata rounds, each served for svcS once its client RPC arrives.
// An RPC is no event: a round is a claim in the ring of its RPC delay,
// stamped with its arrival (now + RPCS) and enqueue order, and as now
// never decreases each ring is in arrival order. The earliest ring head
// by (arrival, order) is the one the (t, seq) order of RPC events would
// serve next. At most one event is pending: the end of the service in
// progress or, while the server is free, a wake. A service's end runs
// the round's continuation, then starts the next claim, as the
// capacity-1 Resource it replaces granted after the releasing round's
// continuation. A round's grant and wait count when its service starts,
// as that Resource counted them when it granted, so stats adds them up
// in the same order.
type mdsQueue struct {
	env    *des.Env
	svcS   float64
	tables []mdsClient // a claim's tab indexes this
	rings  []mdsRing
	minRPC float64 // the shortest ring delay
	order  int64   // enqueue order of the latest claim

	busy, waking bool // cur is in service since started; a wake is pending
	cur          mdsClaim
	started      float64

	grants    int64   // rounds whose service has started
	waitTotal float64 // their waits from arrival to service start
}

// mdsClaim is a waiting metadata round, pointer-free so rings cost no GC.
type mdsClaim struct {
	t        float64 // arrival: when the round's RPC reaches the server
	order    int64
	tab, row int32
}

// mdsClient runs next(row) when a round of its row row ends: *XferTable.
type mdsClient interface{ next(row int32) }

// mdsRing holds one RPC delay's claims in arrival order.
type mdsRing struct {
	rpcS float64
	des.Ring[mdsClaim]
}

// register enrolls x, whose rounds cost rpcS each, and returns its
// table index and ring. Tables are built before the run starts; as
// LocalCost scales one RPCS, either every ring's delay is 0 or none is.
func (q *mdsQueue) register(x mdsClient, rpcS float64) (tab, ring int32) {
	tab = int32(len(q.tables))
	q.tables = append(q.tables, x)
	for i := range q.rings {
		if q.rings[i].rpcS == rpcS {
			return tab, int32(i)
		}
	}
	if len(q.rings) == 0 || rpcS < q.minRPC {
		q.minRPC = rpcS
	}
	q.rings = append(q.rings, mdsRing{rpcS: rpcS})
	return tab, int32(len(q.rings) - 1)
}

// claim queues a metadata round of row row of table tab, whose RPC
// leaves now on ring ring.
func (q *mdsQueue) claim(tab, ring, row int32) {
	r := &q.rings[ring]
	q.order++
	c := mdsClaim{t: q.env.Now() + r.rpcS, order: q.order, tab: tab, row: row}
	r.Push(c)
	if !q.busy && !q.waking {
		q.wake(c.t) // the rings held nothing else
	}
}

// Fire ends the service in progress or wakes the free server. The
// earliest claim starts if it arrived before now, or at now at a wake:
// one arriving as a service ends waits for a wake, as its RPC event ran
// after the service's.
func (q *mdsQueue) Fire(int32) {
	woke := q.waking
	if woke {
		q.waking = false
	} else {
		q.tables[q.cur.tab].next(q.cur.row) // busy still: its next round only queues
		q.busy = false
	}
	var next *mdsRing
	var head *mdsClaim
	for i := range q.rings {
		r := &q.rings[i]
		if r.Len() == 0 {
			continue
		}
		if c := r.At(0); head == nil || c.t < head.t || c.t == head.t && c.order < head.order {
			next, head = r, c
		}
	}
	if next == nil {
		return
	}
	now := q.env.Now()
	if head.t > now || head.t == now && !woke {
		q.wake(head.t)
		return
	}
	q.cur, q.started, q.busy = next.Pop(), now, true
	q.grants++
	q.waitTotal += now - q.cur.t
	q.env.AfterRow(q.svcS, q, 0)
}

// wake arms the free server's wake for the earliest claim, arriving at
// t. No claim sent from now on arrives before now + minRPC: if t is no
// later, the server wakes at t; otherwise a claim on a shorter ring may
// still overtake, and the server wakes at now + minRPC to look again.
func (q *mdsQueue) wake(t float64) {
	now := q.env.Now()
	if w := now + q.minRPC; t > w && w > now {
		t = w
	}
	q.waking = true
	q.env.AtRow(t, q, 0)
}

// stats reports the server's counters as a capacity-1 Resource's.
// Waiting counts every claimed round not yet in service, those whose
// RPC is still in flight included.
func (q *mdsQueue) stats() des.QueueStats {
	s := des.QueueStats{Cap: 1, Grants: q.grants, WaitS: q.waitTotal}
	if q.busy {
		s.InUse = 1
	}
	if q.grants > 0 {
		s.Peak = 1
	}
	for i := range q.rings {
		s.Waiting += q.rings[i].Len()
	}
	return s
}
