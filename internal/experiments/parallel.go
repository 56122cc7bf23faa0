package experiments

// Canonical metric replay for a share-nothing partitioned run (gradsync
// on des.LPSet; see gradsync.go). Feeding a shared Welford accumulator
// during execution would make the floating-point accumulation order
// depend on which worker ran which LP when. Instead each LP records its
// (completion time, sample) stream into a private sampleLog and the
// streams are k-way merged by (time, LP index) afterwards — an order
// that is a pure function of the partition, which is itself a pure
// function of the workload shape, never of Workers. That is what makes
// Workers=N reproduce Workers=1 byte for byte.

// sampleLog records one accumulator's (completion time, latency)
// stream on a single LP. Within a log, times are nondecreasing (events
// execute in order inside an LP), which mergeLogs relies on.
type sampleLog struct {
	t []float64
	v []float64
}

func (l *sampleLog) add(t, v float64) {
	l.t = append(l.t, t)
	l.v = append(l.v, v)
}

// mergeLogs replays per-LP sample logs in canonical global order —
// ascending completion time, ties broken by LP index — via a k-way
// binary-heap merge, calling emit once per sample.
func mergeLogs(logs []*sampleLog, emit func(v float64)) {
	type head struct {
		t  float64
		lp int
	}
	less := func(a, b head) bool { return a.t < b.t || (a.t == b.t && a.lp < b.lp) }
	heap := make([]head, 0, len(logs))
	push := func(h head) {
		heap = append(heap, h)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() head {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			s := i
			if l := 2*i + 1; l < len(heap) && less(heap[l], heap[s]) {
				s = l
			}
			if r := 2*i + 2; r < len(heap) && less(heap[r], heap[s]) {
				s = r
			}
			if s == i {
				break
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
		return top
	}
	pos := make([]int, len(logs))
	for lp, l := range logs {
		if len(l.t) > 0 {
			push(head{t: l.t[0], lp: lp})
		}
	}
	for len(heap) > 0 {
		h := pop()
		l := logs[h.lp]
		emit(l.v[pos[h.lp]])
		pos[h.lp]++
		if pos[h.lp] < len(l.t) {
			push(head{t: l.t[pos[h.lp]], lp: h.lp})
		}
	}
}
