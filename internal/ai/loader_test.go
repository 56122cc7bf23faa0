package ai

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"simaibench/internal/config"
	"simaibench/internal/datastore"
)

// refLoader is the slice-of-rows loader the ring replaced, kept as the
// reference the ring is tested against: decode the whole array, copy
// each full row out, drop non-finite rows, append, then trim to the
// newest maxSamples.
type refLoader struct {
	rows [][]float64
	w    int
}

func (r *refLoader) ingest(raw []byte) {
	xs := DecodeFloat64s(raw)
	for off := 0; off+r.w <= len(xs); off += r.w {
		row := slices.Clone(xs[off : off+r.w])
		if slices.ContainsFunc(row, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
			continue
		}
		r.rows = append(r.rows, row)
	}
	if len(r.rows) > maxSamples {
		r.rows = r.rows[len(r.rows)-maxSamples:]
	}
}

// refAllFinite is the per-word check: a float64 is finite unless its
// exponent bits are all ones.
func refAllFinite(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(b)); math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// refRingIngest is the row-at-a-time ingest the ring first had, kept as
// the oracle for the ring's state, not only its logical rows: each
// finite row is decoded into the slot after the newest, evicting the
// oldest once the ring is full.
func refRingIngest(l *loader, raw []byte) {
	w := l.w
	rowBytes := 8 * w
	l.reserve(len(raw) / rowBytes)
	capRows := len(l.buf) / w
	for ; len(raw) >= rowBytes; raw = raw[rowBytes:] {
		if !refAllFinite(raw[:rowBytes]) {
			continue
		}
		p := (l.head + l.n) % capRows
		slot := l.buf[p*w : (p+1)*w]
		for j := range slot {
			slot[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		if l.n < capRows {
			l.n++
		} else {
			l.head = (l.head + 1) % capRows
		}
	}
}

// sameRing fails unless two loaders hold the same storage, bit for bit,
// and the same head and row count.
func sameRing(t *testing.T, what string, got, want *loader) {
	t.Helper()
	if got.head != want.head || got.n != want.n || len(got.buf) != len(want.buf) {
		t.Fatalf("%s: head %d, n %d, %d floats; oracle head %d, n %d, %d floats",
			what, got.head, got.n, len(got.buf), want.head, want.n, len(want.buf))
	}
	for i, v := range got.buf {
		if math.Float64bits(v) != math.Float64bits(want.buf[i]) {
			t.Fatalf("%s: float %d = %v, oracle %v", what, i, v, want.buf[i])
		}
	}
}

// mapStore is a Store whose reads hand back the staged slice itself, so
// allocation counts below are the trainer's alone.
type mapStore struct {
	datastore.Store
	m map[string][]byte
}

func (s mapStore) StageReadInto(key string, _ []byte) ([]byte, error) {
	v, ok := s.m[key]
	if !ok {
		return nil, datastore.ErrNotStaged
	}
	return v, nil
}

// stagedArray encodes rows×w floats, a fraction of them non-finite,
// followed by tail stray bytes (a short row, possibly a torn float).
func stagedArray(rng *rand.Rand, rows, w int, badFrac float64, tail int) []byte {
	xs := make([]float64, rows*w)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for r := 0; r < rows; r++ {
		if rng.Float64() < badFrac {
			xs[r*w+rng.Intn(w)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	raw := EncodeFloat64s(xs)
	for i := 0; i < tail; i++ {
		raw = append(raw, byte(rng.Intn(256)))
	}
	return raw
}

// sameRows fails unless the ring holds exactly the reference's rows in
// the reference's logical order.
func sameRows(t *testing.T, l *loader, ref *refLoader) {
	t.Helper()
	if l.n != len(ref.rows) {
		t.Fatalf("ring holds %d rows, reference %d", l.n, len(ref.rows))
	}
	for i, want := range ref.rows {
		if got := l.row(i); !slices.Equal(got, want) {
			t.Fatalf("logical row %d = %v, reference %v (head %d)", i, got, want, l.head)
		}
	}
}

// TestLoaderRingMatchesReference: over random staged arrays — NaN/Inf
// rows, short tails, updates that overflow maxSamples several times —
// the ring reports the same LoaderSize, holds the same rows in the same
// logical order, and feeds sampleBatch the same sample sequence for one
// seed as the slice-of-rows loader it replaced.
func TestLoaderRingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := 1 + rng.Intn(5)
			store := mapStore{m: map[string][]byte{}}
			tr, err := New("ai", configWithInput(w), WithStore(store), WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			ref := &refLoader{w: w}
			for u := 0; u < 8; u++ {
				rows := rng.Intn(200)
				if u%3 == 2 {
					rows = maxSamples*3/4 + rng.Intn(maxSamples) // crosses the bound
				}
				store.m["k"] = stagedArray(rng, rows, w, 0.05, rng.Intn(8*w))
				if err := tr.UpdateLoader("k"); err != nil {
					t.Fatal(err)
				}
				ref.ingest(store.m["k"])
				if tr.LoaderSize() != len(ref.rows) {
					t.Fatalf("update %d: LoaderSize %d, reference %d", u, tr.LoaderSize(), len(ref.rows))
				}
				sameRows(t, &tr.loader, ref)

				tr.rng = rand.New(rand.NewSource(seed + int64(u)))
				refRng := rand.New(rand.NewSource(seed + int64(u)))
				for b := 0; b < 3 && len(ref.rows) > 0; b++ {
					xs, _ := tr.sampleBatch()
					for i, got := range xs {
						if want := ref.rows[refRng.Intn(len(ref.rows))]; !slices.Equal(got, want) {
							t.Fatalf("update %d batch %d sample %d = %v, reference %v", u, b, i, got, want)
						}
					}
				}
			}
			if len(ref.rows) != maxSamples {
				t.Fatalf("test never filled the ring: %d rows", len(ref.rows))
			}
		})
	}
}

// TestLoaderRejectedRowWhenFull: with the ring full, the slot a new row
// would take is the oldest row's. A rejected row must leave it alone.
func TestLoaderRejectedRowWhenFull(t *testing.T) {
	const w = 2
	l, ref := &loader{w: w}, &refLoader{w: w}
	fill := make([]float64, maxSamples*w)
	for i := range fill {
		fill[i] = float64(i)
	}
	next := EncodeFloat64s([]float64{math.NaN(), 1, -1, -2, 3, math.Inf(1)})
	for _, raw := range [][]byte{EncodeFloat64s(fill), next} {
		l.ingest(raw)
		ref.ingest(raw)
		sameRows(t, l, ref)
	}
	if got := l.row(0); got[0] != 2 || got[1] != 3 {
		t.Fatalf("oldest row = %v, want [2 3]: one good row evicts exactly one", got)
	}
	if got := l.row(maxSamples - 1); got[0] != -1 || got[1] != -2 {
		t.Fatalf("newest row = %v, want [-1 -2]", got)
	}
}

// TestLoaderGrowsWithData: a trainer that never updates its loader owns
// no sample memory, a wide model fed a few rows pays for those rows and
// not for the bound, and storage never exceeds the bound.
func TestLoaderGrowsWithData(t *testing.T) {
	const w = 1024
	tr, err := New("ai", configWithInput(w))
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainIteration()
	l := &tr.loader
	if l.buf != nil {
		t.Fatalf("loader allocated %d floats before any update", len(l.buf))
	}
	ten := EncodeFloat64s(make([]float64, 10*w))
	l.ingest(ten)
	if len(l.buf) != 10*w {
		t.Fatalf("10 rows took %d floats of storage, want %d", len(l.buf), 10*w)
	}
	l.ingest(ten[:8*w])
	if len(l.buf) != 20*w || l.n != 11 {
		t.Fatalf("growth is not geometric: %d rows in %d floats", l.n, len(l.buf))
	}

	narrow := &loader{w: 1}
	big := EncodeFloat64s(make([]float64, maxSamples+maxSamples/2))
	narrow.ingest(big)
	narrow.ingest(big)
	if len(narrow.buf) != maxSamples || narrow.n != maxSamples {
		t.Fatalf("bound not held: %d rows in %d floats", narrow.n, len(narrow.buf))
	}
}

// TestUpdateLoaderSteadyStateAllocs: once the ring is at its bound an
// UpdateLoader allocates the same — nothing — whether it ingests ten
// rows or ten thousand.
func TestUpdateLoaderSteadyStateAllocs(t *testing.T) {
	const w = 8
	store := mapStore{m: map[string][]byte{
		"fill":  EncodeFloat64s(make([]float64, maxSamples*w)),
		"small": EncodeFloat64s(make([]float64, 10*w)),
		"large": EncodeFloat64s(make([]float64, 10_000*w)),
	}}
	tr, err := New("ai", configWithInput(w), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.UpdateLoader("fill"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"small", "large"} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := tr.UpdateLoader(key); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state UpdateLoader(%s) allocates %v times, want 0", key, allocs)
		}
	}
}

// configWithInput is a small model reading rows of w floats.
func configWithInput(w int) config.AIConfig {
	return config.AIConfig{Layers: []int{w, 4, 2}, LR: 0.01, Batch: 8}
}

// TestAllFiniteMatchesPerWordCheck: with NaN, ±Inf, ±MaxFloat64, the
// smallest subnormal or ±0 at every word offset of rows up to nine words
// long, the row check agrees with the per-word one.
func TestAllFiniteMatchesPerWordCheck(t *testing.T) {
	specials := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0, math.Copysign(0, -1), 1.5}
	for words := 1; words <= 9; words++ {
		for at := 0; at < words; at++ {
			for _, v := range specials {
				row := make([]float64, words)
				for i := range row {
					row[i] = float64(i) - 3.25
				}
				row[at] = v
				raw := EncodeFloat64s(row)
				if got, want := allFinite(raw), refAllFinite(raw); got != want {
					t.Fatalf("%v at word %d of %d: allFinite = %v, per-word check %v", v, at, words, got, want)
				}
			}
		}
	}
}

// FuzzLoaderIngest: over arbitrary bytes at widths 1–5 — short tails,
// NaN and infinite rows, repeated ingests, an ingest that wraps the full
// ring at an arbitrary row and one longer than the ring — ingest leaves
// the storage, head and row count the row-at-a-time oracle leaves.
func FuzzLoaderIngest(f *testing.F) {
	nan := EncodeFloat64s([]float64{1, math.NaN(), 2, 3, math.Inf(-1), 4, 5})
	f.Add(uint8(1), uint32(0), nan)
	f.Add(uint8(0), uint32(7), nan)
	f.Add(uint8(4), uint32(1<<20+3), EncodeFloat64s([]float64{-0.5, 7, 8, 9, 1e300}))
	f.Add(uint8(2), uint32(5), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2})
	f.Fuzz(func(t *testing.T, w uint8, fill uint32, data []byte) {
		width := 1 + int(w%5)
		got, want := &loader{w: width}, &loader{w: width}
		ingest := func(what string, raw []byte) {
			got.ingest(raw)
			refRingIngest(want, raw)
			sameRing(t, what, got, want)
		}
		ingest("first", data)
		if fill%2 == 1 && len(data) > 0 {
			// Tile data past the ring's bound, by up to one more ring.
			rows := maxSamples + int(fill>>1)%(2*maxSamples)
			ingest("tiled", bytes.Repeat(data, rows*8*width/len(data)+1))
		}
		ingest("again", data)
		ingest("offset", data[len(data)/3:])
	})
}

// TestDecodeIntoFormsAgree: the byte copy a little-endian host makes and
// the decode loop a big-endian host runs both fill DecodeFloat64s's
// bits, NaN payloads included.
func TestDecodeIntoFormsAgree(t *testing.T) {
	src := make([]byte, 8*37)
	rand.New(rand.NewSource(34)).Read(src)
	want := DecodeFloat64s(src)
	prev := littleEndian
	t.Cleanup(func() { littleEndian = prev })
	for _, le := range []bool{true, false} {
		littleEndian = le
		got := make([]float64, len(want))
		decodeInto(got, src)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("little-endian form %v: float %d = %#x, want %#x", le, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
