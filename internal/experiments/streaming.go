package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"simaibench/internal/clock"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
	"simaibench/internal/stream"
)

// The streaming experiment is this reproduction's extension of the
// paper's named future work ("we plan [to] add support for
// point-to-point streaming, for instance using ADIOS2"): it compares
// snapshot delivery through the polled staging path (stage_write + the
// consumer's poll loop) against push-based step streaming, measuring
// end-to-end delivery latency and throughput with real data movement.

// StreamingMethod labels one transport discipline.
type StreamingMethod string

// Methods compared.
const (
	MethodStagedPolling StreamingMethod = "staged-poll"
	MethodStreamInProc  StreamingMethod = "stream-inproc"
	MethodStreamTCP     StreamingMethod = "stream-tcp"
)

// StreamingPoint is one (method, size) measurement.
type StreamingPoint struct {
	Method       StreamingMethod
	SizeMB       float64
	LatencyMeanS float64 // producer Put/StageWrite start -> consumer has bytes
	GBps         float64
}

// streamingMethods is the order the three disciplines are measured and
// tabulated in.
var streamingMethods = []StreamingMethod{MethodStagedPolling, MethodStreamInProc, MethodStreamTCP}

// StreamingConfig drives the comparison.
type StreamingConfig struct {
	SizeMB    float64
	Snapshots int
	// PollInterval is the consumer's staging poll period — the latency
	// floor of the staged path that streaming removes. It is spent on
	// the active clock, so virtual runs carry the same poll floor in
	// their latency decomposition as wall runs without sleeping for
	// real.
	PollInterval time.Duration
	// Backend for the staged path (the zero value, datastore.Redis, by
	// default: a live mini-Redis over loopback TCP).
	Backend datastore.Backend
	// Clock selects the time domain: clock.KindVirtual (the default when
	// empty) or clock.KindWall. Wall runs measure real transfer times;
	// virtual runs still move every byte for real but pad each transfer
	// to the modeled duration SizeMB/XferGBps on a clock of the
	// measurement's own, so the reported latency keeps the wall
	// decomposition (transfer cost plus the staged path's poll floor)
	// while the tables are deterministic, the run never sleeps for real,
	// and measurements may run side by side without touching each
	// other's numbers.
	Clock string
	// XferGBps is the modeled transfer bandwidth of virtual runs
	// (default 2 GB/s, the mid-range of the Fig 3 single-tenant
	// backends). Ignored in wall mode.
	XferGBps float64
}

// maxStreamingSizeMB is the largest snapshot a measurement accepts: one
// stream variable's limit (1 GiB), which also keeps the byte count and
// the modeled pad inside their integer types.
const maxStreamingSizeMB = 1 << 10

// resolved fills the zero fields with their defaults and rejects the
// values that would otherwise panic in an allocation or yield a
// negative or infinite pad, naming the field.
func (c StreamingConfig) resolved() (StreamingConfig, error) {
	if c.SizeMB == 0 {
		c.SizeMB = 1
	}
	if c.Snapshots == 0 {
		c.Snapshots = 20
	}
	if c.PollInterval == 0 {
		c.PollInterval = 5 * time.Millisecond
	}
	if c.Clock == "" {
		c.Clock = clock.KindVirtual
	}
	if c.XferGBps == 0 {
		c.XferGBps = 2
	}
	if !(c.SizeMB > 0 && c.SizeMB <= maxStreamingSizeMB) {
		return c, fmt.Errorf("streaming: SizeMB = %v, want a size in (0, %d] MB", c.SizeMB, maxStreamingSizeMB)
	}
	if c.Snapshots < 1 {
		return c, fmt.Errorf("streaming: Snapshots = %d, want at least 1", c.Snapshots)
	}
	if c.PollInterval < 0 {
		return c, fmt.Errorf("streaming: PollInterval = %v, want a positive period", c.PollInterval)
	}
	// The pad bound keeps SizeMB/XferGBps inside a time.Duration.
	if !(c.XferGBps > 0) || math.IsInf(c.XferGBps, 0) || c.SizeMB/1000/c.XferGBps > math.MaxInt64/float64(time.Second) {
		return c, fmt.Errorf("streaming: XferGBps = %v, want a finite positive bandwidth", c.XferGBps)
	}
	return c, nil
}

// xferPad returns the modeled virtual duration of one snapshot
// transfer, or zero in wall mode (where transfers take their real
// time).
func (c StreamingConfig) xferPad() time.Duration {
	if !clock.IsVirtual(c.Clock) {
		return 0
	}
	return time.Duration(c.SizeMB / 1000 / c.XferGBps * float64(time.Second))
}

// runStreamingCell takes one (size, method) measurement. It owns the
// transport from start to teardown — a live backend and a client for
// the staged path, a bounded in-process queue or a loopback listener
// and its dialled reader for the push paths — and every Close and Stop
// is deferred, so no return leaves a server, a listener or a parked
// producer behind. Cells share nothing (each has its own clock,
// transport, payload and accumulators), which is what lets
// streamingGridVia run them side by side.
func runStreamingCell(ctx context.Context, cfg StreamingConfig, method StreamingMethod) (StreamingPoint, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return StreamingPoint{}, err
	}
	if err := ctx.Err(); err != nil {
		return StreamingPoint{}, err
	}
	switch method {
	case MethodStagedPolling:
		mgr, info, err := datastore.StartBackend(cfg.Backend, "")
		if err != nil {
			return StreamingPoint{}, err
		}
		defer mgr.Stop()
		store, err := datastore.Connect(info)
		if err != nil {
			return StreamingPoint{}, err
		}
		defer store.Close()
		return runStagedPolling(ctx, cfg, store)
	case MethodStreamInProc:
		w, r := stream.Pipe(4)
		defer r.Close() // the writer holds nothing once its producer has returned
		return RunStreamDelivery(ctx, cfg, method, w, r)
	case MethodStreamTCP:
		w, err := stream.ListenTCP("127.0.0.1:0")
		if err != nil {
			return StreamingPoint{}, err
		}
		defer w.Close()
		r, err := stream.DialTCP(w.Addr())
		if err != nil {
			return StreamingPoint{}, err
		}
		defer r.Close()
		return RunStreamDelivery(ctx, cfg, method, w, r)
	}
	return StreamingPoint{}, fmt.Errorf("streaming: unknown method %q", method)
}

// runStagedPolling measures the staging path through store: the
// producer writes snapshots under fresh keys, the consumer polls at the
// configured interval and reads when present. All waiting runs on the
// configured clock; in virtual mode each write and read is additionally
// padded to its modeled duration, so the reported latency decomposes
// exactly as a wall run's (transfer + poll floor) without any real
// sleeping. Cancelling ctx interrupts the poll loop. cfg is resolved.
func runStagedPolling(ctx context.Context, cfg StreamingConfig, store datastore.Store) (StreamingPoint, error) {
	clk, err := clock.FromKind(cfg.Clock)
	if err != nil {
		return StreamingPoint{}, err
	}
	pad := cfg.xferPad()
	payload := make([]byte, int(cfg.SizeMB*1e6))
	var got []byte // the consumer's read buffer, reused across snapshots
	var lat stats.Welford
	var tput stats.Throughput
	for i := 0; i < cfg.Snapshots; i++ {
		key := fmt.Sprintf("snap/%d", i)
		start := clk.Now()
		if err := store.StageWrite(key, payload); err != nil {
			return StreamingPoint{}, err
		}
		clk.Sleep(pad) // virtual mode: the write's modeled duration
		// Consumer side: poll until present, then read.
		for {
			if err := ctx.Err(); err != nil {
				return StreamingPoint{}, err
			}
			ok, err := store.Poll(key)
			if err != nil {
				return StreamingPoint{}, err
			}
			if ok {
				break
			}
			clk.Sleep(cfg.PollInterval)
		}
		// First poll can race the write; model the steady-state consumer
		// that discovers the key on its next poll tick.
		clk.Sleep(cfg.PollInterval)
		got, err = store.StageReadInto(key, got)
		if err != nil {
			return StreamingPoint{}, err
		}
		clk.Sleep(pad) // virtual mode: the read's modeled duration
		d := clk.Now().Sub(start).Seconds()
		lat.Add(d)
		tput.Add(int64(len(got)), d)
		// clean_staged_data, outside the measured interval: a consumed
		// snapshot must not stay resident in the backend until teardown.
		if err := store.Clean(key); err != nil {
			return StreamingPoint{}, err
		}
	}
	return StreamingPoint{
		Method: MethodStagedPolling, SizeMB: cfg.SizeMB,
		LatencyMeanS: lat.Mean(), GBps: tput.MeanGBps(),
	}, nil
}

// RunStreamDelivery measures the push path over the given writer/reader
// pair: the producer publishes steps, the consumer receives them with
// no polling. In wall mode the latency is the measured Put-to-receipt
// time (the TCP transport sends the payload at Put); in virtual mode
// every byte still moves for real, but each delivery is padded to its
// modeled transfer duration in virtual time — the push path has no poll floor, which is exactly the
// comparison the tables make. The consumer looks at ctx once per step.
// The producer goroutine never outlives the call: on an early return
// the reader is closed, which releases a producer parked on a full
// queue or a full socket, and its exit is waited for. The caller still
// owns (and closes) both endpoints.
func RunStreamDelivery(ctx context.Context, cfg StreamingConfig, method StreamingMethod, w stream.Writer, r stream.Reader) (StreamingPoint, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return StreamingPoint{}, err
	}
	clk, err := clock.FromKind(cfg.Clock)
	if err != nil {
		return StreamingPoint{}, err
	}
	pad := cfg.xferPad()
	virtual := clock.IsVirtual(cfg.Clock)
	payload := make([]byte, int(cfg.SizeMB*1e6))
	var lat stats.Welford
	var tput stats.Throughput
	errCh := make(chan error, 1)
	starts := make(chan time.Time, cfg.Snapshots)
	go func() {
		// The producer is a free-running goroutine outside any clock
		// barrier: its stamps are only read in wall mode.
		defer w.Close()
		for i := 0; i < cfg.Snapshots; i++ {
			step, err := w.BeginStep()
			if err != nil {
				errCh <- err
				return
			}
			starts <- time.Now()
			if err := step.Put("field", payload); err != nil {
				errCh <- err
				return
			}
			if err := step.EndStep(); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	abandon := func(err error) (StreamingPoint, error) {
		r.Close()
		if perr := <-errCh; perr != nil && errors.Is(err, stream.ErrDone) {
			err = perr // the stream ended early because the producer failed
		}
		return StreamingPoint{}, err
	}
	for i := 0; i < cfg.Snapshots; i++ {
		if err := ctx.Err(); err != nil {
			return abandon(err)
		}
		s, err := r.NextStep()
		if err != nil {
			return abandon(err)
		}
		start := <-starts
		var d float64
		if virtual {
			t0 := clk.Now()
			clk.Sleep(pad)
			d = clk.Now().Sub(t0).Seconds()
		} else {
			d = time.Since(start).Seconds()
		}
		lat.Add(d)
		tput.Add(int64(s.Bytes()), d)
	}
	if err := <-errCh; err != nil {
		return StreamingPoint{}, err
	}
	return StreamingPoint{
		Method: method, SizeMB: cfg.SizeMB,
		LatencyMeanS: lat.Mean(), GBps: tput.MeanGBps(),
	}, nil
}

// streamingTable structures the comparison for the reporters.
func streamingTable(points []StreamingPoint) scenario.Table {
	t := scenario.NewTable("Extension — staged polling vs point-to-point streaming (real data movement)", len(points), []scenario.Column{
		{Key: "method", Head: "method", HeadFmt: "%-14s", CellFmt: "%-14s"},
		{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
		{Key: "latency_mean_ms", Head: "latency-mean(ms)", HeadFmt: "%16s", CellFmt: "%16.3f"},
		{Key: "gbps", Head: "GB/s", HeadFmt: "%12s", CellFmt: "%12.3f"},
	})
	for _, pt := range points {
		t.AddRow(scenario.S(string(pt.Method)), scenario.F(pt.SizeMB), scenario.F(pt.LatencyMeanS*1000), scenario.F(pt.GBps))
	}
	return t
}
