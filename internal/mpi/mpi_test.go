package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWorldSize(t *testing.T) {
	w := NewWorld(4)
	if w.size != 4 {
		t.Fatalf("size = %d, want 4", w.size)
	}
}

func TestBadWorldSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			data, from := c.Recv(0, 7)
			if string(data) != "hello" || from != 0 {
				t.Errorf("recv = %q from %d, want hello from 0", data, from)
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the delivered message
			c.Send(1, 1, nil)
		} else {
			data, _ := c.Recv(0, 0)
			c.Recv(0, 1)
			if data[0] != 1 {
				t.Errorf("message mutated after send: %v", data)
			}
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 10, []byte("ten"))
			c.Send(1, 20, []byte("twenty"))
		} else {
			// Receive out of arrival order by tag.
			d20, _ := c.Recv(0, 20)
			d10, _ := c.Recv(0, 10)
			if string(d20) != "twenty" || string(d10) != "ten" {
				t.Errorf("tag matching failed: %q %q", d20, d10)
			}
		}
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, from := c.Recv(AnySource, AnyTag)
				seen[from] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("wildcard recv missed a source: %v", seen)
			}
		default:
			c.Send(0, c.Rank()*100, []byte{byte(c.Rank())})
		}
	})
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		} else {
			for i := 0; i < 20; i++ {
				data, _ := c.Recv(0, 5)
				if data[0] != byte(i) {
					t.Errorf("message %d overtaken: got %d", i, data[0])
				}
			}
		}
	})
}

func TestFloat64RoundTrip(t *testing.T) {
	w := NewWorld(2)
	want := []float64{1.5, -2.25, math.Pi, 0, math.Inf(1)}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 0, want)
		} else {
			got, _ := c.RecvFloat64s(0, 0)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("float round trip = %v, want %v", got, want)
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var mu sync.Mutex
	before, after := 0, 0
	w.Run(func(c *Comm) {
		mu.Lock()
		before++
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		if before != n {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), before)
		}
		after++
		mu.Unlock()
	})
	if after != n {
		t.Fatalf("after = %d, want %d", after, n)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	const n, rounds = 6, 25
	w := NewWorld(n)
	counters := make([]int, n)
	w.Run(func(c *Comm) {
		for r := 0; r < rounds; r++ {
			counters[c.Rank()]++
			c.Barrier()
			for i := range counters {
				if counters[i] < r+1 {
					t.Errorf("barrier round %d leaked: rank %d at %d", r, i, counters[i])
				}
			}
			c.Barrier()
		}
	})
}

func TestAllReduceSum(t *testing.T) {
	const n = 7
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		buf := []float64{float64(c.Rank()), 1}
		c.AllReduce(Sum, buf)
		wantFirst := float64(n * (n - 1) / 2)
		if buf[0] != wantFirst || buf[1] != n {
			t.Errorf("rank %d: allreduce = %v, want [%v %v]", c.Rank(), buf, wantFirst, float64(n))
		}
	})
}

func TestAllReduceOps(t *testing.T) {
	cases := []struct {
		op   Op
		want float64
	}{
		{Sum, 0 + 1 + 2 + 3},
		{Prod, 0},
		{Max, 3},
		{Min, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.op.String(), func(t *testing.T) {
			w := NewWorld(4)
			w.Run(func(c *Comm) {
				buf := []float64{float64(c.Rank())}
				c.AllReduce(tc.op, buf)
				if buf[0] != tc.want {
					t.Errorf("%v: got %v, want %v", tc.op, buf[0], tc.want)
				}
			})
		})
	}
}

func TestBcast(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		buf := make([]float64, 3)
		if c.Rank() == 1 {
			buf = []float64{10, 20, 30}
		}
		c.Bcast(1, buf)
		if !reflect.DeepEqual(buf, []float64{10, 20, 30}) {
			t.Errorf("rank %d: bcast = %v", c.Rank(), buf)
		}
	})
}

func TestAllGatherOrdered(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		got := c.AllGather([]float64{float64(c.Rank()), float64(c.Rank() * 10)})
		want := []float64{0, 0, 1, 10, 2, 20, 3, 30}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: allgather = %v, want %v", c.Rank(), got, want)
		}
	})
}

func TestGatherRootOnly(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		got := c.Gather(0, []float64{float64(c.Rank() + 1)})
		if c.Rank() == 0 {
			if !reflect.DeepEqual(got, []float64{1, 2, 3}) {
				t.Errorf("gather = %v", got)
			}
		} else if got != nil {
			t.Errorf("non-root gather = %v, want nil", got)
		}
	})
}

func TestScatter(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		var data []float64
		if c.Rank() == 0 {
			data = []float64{0, 1, 2, 3, 4, 5, 6, 7}
		}
		chunk := c.Scatter(0, data)
		want := []float64{float64(2 * c.Rank()), float64(2*c.Rank() + 1)}
		if !reflect.DeepEqual(chunk, want) {
			t.Errorf("rank %d: scatter = %v, want %v", c.Rank(), chunk, want)
		}
	})
}

func TestCollectivesBackToBack(t *testing.T) {
	// Stress ordering: many different collectives in sequence must not
	// bleed state between phases.
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for round := 0; round < 30; round++ {
			buf := []float64{float64(c.Rank() + round)}
			c.AllReduce(Sum, buf)
			want := float64(n*round) + float64(n*(n-1)/2)
			if buf[0] != want {
				t.Errorf("round %d: %v want %v", round, buf[0], want)
				return
			}
			g := c.AllGather([]float64{float64(c.Rank())})
			if len(g) != n {
				t.Errorf("round %d: gather len %d", round, len(g))
				return
			}
			c.Barrier()
		}
	})
}

func TestPropertyAllReduceMatchesSerialSum(t *testing.T) {
	f := func(seed int64, rawN uint8, rawLen uint8) bool {
		n := int(rawN%6) + 1
		length := int(rawLen%32) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		want := make([]float64, length)
		for r := 0; r < n; r++ {
			inputs[r] = make([]float64, length)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		ok := true
		var mu sync.Mutex
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			buf := make([]float64, length)
			copy(buf, inputs[c.Rank()])
			c.AllReduce(Sum, buf)
			for i := range buf {
				if math.Abs(buf[i]-want[i]) > 1e-9 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodeDecodeFloat64s(t *testing.T) {
	f := func(xs []float64) bool {
		got := decodeFloat64s(encodeFloat64s(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(3)
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("rank failure")
		}
		// Other ranks block on a receive that will never complete; the
		// kill must unwind them rather than deadlock.
		defer func() { recover() }()
		c.Recv(AnySource, AnyTag)
	})
}

func TestManyRanksStress(t *testing.T) {
	const n = 32
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		buf := []float64{1}
		for i := 0; i < 10; i++ {
			c.AllReduce(Sum, buf)
		}
		if buf[0] != math.Pow(n, 10) {
			t.Errorf("rank %d: got %v want %v", c.Rank(), buf[0], math.Pow(n, 10))
		}
	})
}

func BenchmarkAllReduce8Ranks(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("len=%d", size), func(b *testing.B) {
			w := NewWorld(8)
			b.ResetTimer()
			w.Run(func(c *Comm) {
				buf := make([]float64, size)
				for i := 0; i < b.N; i++ {
					c.AllReduce(Sum, buf)
				}
			})
		})
	}
}

func BenchmarkSendRecvPingPong(b *testing.B) {
	w := NewWorld(2)
	payload := make([]byte, 1024)
	b.ResetTimer()
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, payload)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, payload)
			}
		}
	})
}

func TestCollectivesSkewedReentry(t *testing.T) {
	// Regression: a fast rank must not deposit for collective k+1 until
	// every rank drained collective k. Skew rank speeds with sleeps so
	// re-entry pressure is constant.
	const n, rounds = 4, 60
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for r := 0; r < rounds; r++ {
			buf := []float64{float64(c.Rank() + 1)}
			c.AllReduce(Sum, buf)
			if buf[0] != 1+2+3+4 {
				t.Errorf("rank %d round %d: got %v want 10", c.Rank(), r, buf[0])
				return
			}
			// Rank 0 races ahead; rank n-1 lags.
			time.Sleep(time.Duration(c.Rank()) * 100 * time.Microsecond)
		}
	})
}

func TestMixedCollectiveKindsInterleaved(t *testing.T) {
	const n, rounds = 3, 40
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for r := 0; r < rounds; r++ {
			g := c.AllGather([]float64{float64(c.Rank())})
			if len(g) != n || g[0] != 0 || g[n-1] != float64(n-1) {
				t.Errorf("round %d gather = %v", r, g)
				return
			}
			buf := []float64{1}
			c.AllReduce(Max, buf)
			if buf[0] != 1 {
				t.Errorf("round %d max = %v", r, buf[0])
				return
			}
			c.Barrier()
		}
	})
}
