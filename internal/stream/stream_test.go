package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// transports runs a behaviour test against both the in-proc pipe and the
// TCP transport.
func transports(t *testing.T, fn func(t *testing.T, w Writer, r Reader)) {
	t.Run("pipe", func(t *testing.T) {
		w, r := Pipe(4)
		t.Cleanup(func() { w.Close(); r.Close() })
		fn(t, w, r)
	})
	t.Run("tcp", func(t *testing.T) {
		tw, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := DialTCP(tw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tw.Close(); tr.Close() })
		fn(t, tw, tr)
	})
}

func publish(t *testing.T, w Writer, vars map[string][]byte) {
	t.Helper()
	step, err := w.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range vars {
		if err := step.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := step.EndStep(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleStepRoundTrip(t *testing.T) {
	transports(t, func(t *testing.T, w Writer, r Reader) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			publish(t, w, map[string][]byte{
				"velocity": []byte("vvv"),
				"pressure": []byte("pp"),
			})
		}()
		s, err := r.NextStep()
		if err != nil {
			t.Fatal(err)
		}
		<-done
		if s.Index != 0 {
			t.Fatalf("index = %d", s.Index)
		}
		v, ok := s.Get("velocity")
		if !ok || string(v) != "vvv" {
			t.Fatalf("velocity = %q,%v", v, ok)
		}
		if got := s.Vars(); len(got) != 2 || got[0] != "pressure" {
			t.Fatalf("vars = %v", got)
		}
		if s.Bytes() != 5 {
			t.Fatalf("bytes = %d", s.Bytes())
		}
	})
}

func TestStepsArriveInOrder(t *testing.T) {
	transports(t, func(t *testing.T, w Writer, r Reader) {
		const n = 25
		go func() {
			for i := 0; i < n; i++ {
				publish(t, w, map[string][]byte{"x": {byte(i)}})
			}
			w.Close()
		}()
		for i := 0; i < n; i++ {
			s, err := r.NextStep()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if s.Index != i {
				t.Fatalf("step index = %d, want %d", s.Index, i)
			}
			v, _ := s.Get("x")
			if v[0] != byte(i) {
				t.Fatalf("step %d payload = %v", i, v)
			}
		}
		if _, err := r.NextStep(); !errors.Is(err, ErrDone) {
			t.Fatalf("after close: %v, want ErrDone", err)
		}
	})
}

func TestEndOfStream(t *testing.T) {
	transports(t, func(t *testing.T, w Writer, r Reader) {
		go func() {
			publish(t, w, map[string][]byte{"a": []byte("1")})
			w.Close()
		}()
		if _, err := r.NextStep(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.NextStep(); !errors.Is(err, ErrDone) {
			t.Fatalf("err = %v, want ErrDone", err)
		}
		// ErrDone is sticky.
		if _, err := r.NextStep(); !errors.Is(err, ErrDone) {
			t.Fatalf("second err = %v, want ErrDone", err)
		}
	})
}

func TestBackpressureBlocksWriter(t *testing.T) {
	w, r := Pipe(2)
	defer r.Close()
	// Fill the queue.
	publish(t, w, map[string][]byte{"x": nil})
	publish(t, w, map[string][]byte{"x": nil})
	blocked := make(chan struct{})
	go func() {
		publish(t, w, map[string][]byte{"x": nil}) // must block
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("writer did not block on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	// Draining one step unblocks it.
	if _, err := r.NextStep(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("writer stayed blocked after drain")
	}
	w.Close()
}

func TestDoubleEndStep(t *testing.T) {
	w, r := Pipe(2)
	defer w.Close()
	defer r.Close()
	step, _ := w.BeginStep()
	step.Put("x", nil)
	if err := step.EndStep(); err != nil {
		t.Fatal(err)
	}
	if err := step.EndStep(); err == nil {
		t.Fatal("double EndStep succeeded")
	}
	if err := step.Put("y", nil); err == nil {
		t.Fatal("Put after EndStep succeeded")
	}
}

func TestBeginStepWhileOpen(t *testing.T) {
	w, r := Pipe(2)
	defer w.Close()
	defer r.Close()
	if _, err := w.BeginStep(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.BeginStep(); err == nil {
		t.Fatal("second BeginStep with open step succeeded")
	}
}

func TestWriterAfterClose(t *testing.T) {
	w, r := Pipe(2)
	r.Close()
	w.Close()
	if _, err := w.BeginStep(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestReaderGoneDropsSteps(t *testing.T) {
	w, r := Pipe(1)
	r.Close()
	// Writer keeps working; steps are dropped, no deadlock.
	for i := 0; i < 5; i++ {
		publish(t, w, map[string][]byte{"x": {byte(i)}})
	}
	w.Close()
}

func TestPutCopiesData(t *testing.T) {
	w, r := Pipe(2)
	defer w.Close()
	defer r.Close()
	buf := []byte{1, 2, 3}
	step, _ := w.BeginStep()
	step.Put("x", buf)
	buf[0] = 99
	step.EndStep()
	s, err := r.NextStep()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("x")
	if v[0] != 1 {
		t.Fatalf("payload mutated after Put: %v", v)
	}
}

func TestLargeStepOverTCP(t *testing.T) {
	tw, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	payload := bytes.Repeat([]byte{0x77}, 4<<20)
	go func() {
		step, err := tw.BeginStep()
		if err != nil {
			t.Error(err)
			return
		}
		step.Put("big", payload)
		step.EndStep()
	}()
	tr, err := DialTCP(tw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	s, err := tr.NextStep()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("big")
	if !bytes.Equal(v, payload) {
		t.Fatal("4MB step corrupted over TCP")
	}
}

// TestStreamingFrameBounds: a reader allocates what a
// header announces, so a 16-byte corrupt or hostile frame must be
// refused by its announced sizes, naming the field and the value,
// before anything of that size is made.
func TestStreamingFrameBounds(t *testing.T) {
	frame := func(nvars, nameLen uint32, name string, dataLen uint64) []byte {
		b := binary.BigEndian.AppendUint64(nil, 7) // step index
		b = binary.BigEndian.AppendUint32(b, nvars)
		b = binary.BigEndian.AppendUint32(b, nameLen)
		if name != "" {
			b = binary.BigEndian.AppendUint64(append(b, name...), dataLen)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  []string
	}{
		{"variable count", frame(endOfStreamMark-1, 1, "", 0), []string{"variable count", "4294967294"}},
		{"name length", frame(1, maxStreamVar, "", 0), []string{"name length", "1073741824"}},
		{"data length", frame(1, 1, "u", maxStreamVar+1), []string{`var "u" data length`, "1073741825"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			go func() {
				server.Write(tc.frame)
				server.Close()
			}()
			r := &TCPReader{conn: client, r: bufio.NewReaderSize(client, 1<<16)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := r.NextStep()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("refusing the frame allocated %d bytes, want under 1 MB", grew)
			}
		})
	}
}

func TestConcurrentProducerConsumerThroughput(t *testing.T) {
	w, r := Pipe(8)
	const steps = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			publish(t, w, map[string][]byte{"x": {byte(i)}})
		}
		w.Close()
	}()
	got := 0
	for {
		_, err := r.NextStep()
		if errors.Is(err, ErrDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	wg.Wait()
	if got != steps {
		t.Fatalf("received %d steps, want %d", got, steps)
	}
}

func TestPropertyStepVarsRoundTripTCP(t *testing.T) {
	tw, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	tr, err := DialTCP(tw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	f := func(name string, data []byte) bool {
		if name == "" {
			name = "v"
		}
		step, err := tw.BeginStep()
		if err != nil {
			return false
		}
		step.Put(name, data)
		errCh := make(chan error, 1)
		go func() { errCh <- step.EndStep() }()
		s, err := tr.NextStep()
		if err != nil || <-errCh != nil {
			return false
		}
		v, ok := s.Get(name)
		return ok && bytes.Equal(v, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipeStep1MB(b *testing.B) {
	w, r := Pipe(8)
	payload := make([]byte, 1<<20)
	go func() {
		for {
			step, err := w.BeginStep()
			if err != nil {
				return
			}
			step.Put("x", payload)
			if step.EndStep() != nil {
				return
			}
		}
	}()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.NextStep(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.Close()
	w.Close()
}

func BenchmarkTCPStep1MB(b *testing.B) {
	tw, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tw.Close()
	payload := make([]byte, 1<<20)
	go func() {
		for {
			step, err := tw.BeginStep()
			if err != nil {
				return
			}
			step.Put("x", payload)
			if step.EndStep() != nil {
				return
			}
		}
	}()
	tr, err := DialTCP(tw.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.NextStep(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExamplePipe() {
	w, r := Pipe(2)
	go func() {
		for i := 0; i < 2; i++ {
			step, _ := w.BeginStep()
			step.Put("field", []byte{byte(i)})
			step.EndStep()
		}
		w.Close()
	}()
	for {
		s, err := r.NextStep()
		if err != nil {
			break
		}
		v, _ := s.Get("field")
		fmt.Println(s.Index, v[0])
	}
	// Output:
	// 0 0
	// 1 1
}
