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
		if p, ok := s.Get("pressure"); !ok || string(p) != "pp" {
			t.Fatalf("pressure = %q,%v", p, ok)
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
	transports(t, func(t *testing.T, w Writer, r Reader) {
		buf := []byte{1, 2, 3}
		step, err := w.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if err := step.Put("x", buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 99
		if err := step.EndStep(); err != nil {
			t.Fatal(err)
		}
		s, err := r.NextStep()
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Get("x"); v[0] != 1 {
			t.Fatalf("payload mutated after Put: %v", v)
		}
	})
}

// TestStepDataValidUntilNextStep pins the Reader contract both ways: a
// step's payload stays intact while the writer publishes later steps,
// and after the next NextStep its buffer is recycled for a later step.
func TestStepDataValidUntilNextStep(t *testing.T) {
	transports(t, func(t *testing.T, w Writer, r Reader) {
		fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
		read := func(want byte) []byte {
			t.Helper()
			s, err := r.NextStep()
			if err != nil {
				t.Fatal(err)
			}
			v, _ := s.Get("x")
			if !bytes.Equal(v, fill(want)) {
				t.Fatalf("step %d payload starts %v, want all %d", s.Index, v[:4], want)
			}
			return v
		}
		publish(t, w, map[string][]byte{"x": fill(1)})
		v0 := read(1)
		publish(t, w, map[string][]byte{"x": fill(2)})
		if !bytes.Equal(v0, fill(1)) {
			t.Fatal("publishing the next step overwrote the held step's payload")
		}
		read(2)
		publish(t, w, map[string][]byte{"x": fill(3)})
		if v2 := read(3); &v2[0] != &v0[0] {
			t.Error("a consumed step's buffer was not recycled")
		}
	})
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

// varRecord frames one variable record with the given header fields.
func varRecord(nameLen uint32, name string, dataLen uint64) []byte {
	b := binary.BigEndian.AppendUint32(nil, nameLen)
	return binary.BigEndian.AppendUint64(append(b, name...), dataLen)
}

// TestStreamingFrameBounds: a reader allocates what a header announces,
// so a corrupt or hostile record must be refused by its announced
// sizes, naming the field and the value, before anything of that size
// is made.
func TestStreamingFrameBounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  []string
	}{
		{"variable count", bytes.Repeat(varRecord(0, "", 0), maxStreamVars+1), []string{"variable count", "65536"}},
		{"name length", binary.BigEndian.AppendUint32(nil, maxStreamName+1), []string{"name length", "65537"}},
		{"data length", varRecord(1, "u", maxStreamVar+1), []string{`var "u" data length`, "1073741825"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := frameReader(tc.frame).NextStep()
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

// frameReader returns a TCPReader over an in-memory connection that
// carries frame and then closes.
func frameReader(frame []byte) *TCPReader {
	client, server := net.Pipe()
	go func() {
		server.Write(frame)
		server.Close()
	}()
	return &TCPReader{conn: client, r: bufio.NewReaderSize(client, 1<<16)}
}

// FuzzStreamFrame feeds arbitrary bytes to TCPReader.NextStep until it
// ends. It must never panic, and must allocate in proportion to the
// bytes it was given: a header announcing more than the input carries
// (up to the 1 GiB frame bound) is skipped, since the reader allocates
// an announced payload — after checking its bound — before it arrives.
func FuzzStreamFrame(f *testing.F) {
	step := append(varRecord(1, "x", 3), 1, 2, 3)
	step = binary.BigEndian.AppendUint32(step, endOfStepMark)
	step = binary.BigEndian.AppendUint64(step, 7)
	f.Add(step)
	f.Add(append(step, binary.BigEndian.AppendUint32(nil, endOfStreamMark)...))
	f.Add(append(step, step...))
	f.Add(varRecord(1, "u", maxStreamVar+1))
	f.Add(binary.BigEndian.AppendUint32(nil, maxStreamName+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for i := 0; i+8 <= len(data); i++ {
			if n := binary.BigEndian.Uint64(data[i:]); n > uint64(len(data)) && n <= maxStreamVar {
				t.Skip("announces a payload longer than the input")
			}
		}
		r := frameReader(data)
		defer r.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for steps := 0; steps <= len(data); steps++ {
			if _, err := r.NextStep(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(data)) {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(data), grew)
		}
	})
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
