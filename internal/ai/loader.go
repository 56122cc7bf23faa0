package ai

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// maxSamples bounds loader memory like a real streaming dataset: once
// this many rows are buffered, each new row evicts the oldest.
const maxSamples = 65536

// loader is the trainer's sample buffer: one contiguous ring of at most
// maxSamples rows of w floats, filled straight from staged bytes. Rows
// keep their arrival order — logical row i is physical row
// (head+i) mod capacity — so drawing rng.Intn(n) picks the same
// sample a plain slice of rows trimmed to its newest maxSamples would.
//
// The zero value is an empty loader that owns no memory; storage grows
// geometrically up to the bound, so a wide model fed little data never
// pays for maxSamples × w.
type loader struct {
	buf  []float64 // capacity rows × w floats
	w    int       // row width
	head int       // physical row of logical row 0; non-zero only once full
	n    int       // rows held
}

// row returns logical row i. The slice aliases the ring: it is valid
// until the next ingest.
func (l *loader) row(i int) []float64 {
	p := (l.head + i) % (len(l.buf) / l.w)
	return l.buf[p*l.w : (p+1)*l.w : (p+1)*l.w]
}

// ingest appends the rows of a staged little-endian float64 array, w
// floats each. A short tail is dropped, and so is any row holding a NaN
// or an infinity — before it is committed, so a rejected row never
// displaces a good one, even when the ring is full. Each run of finite
// rows is copied in as a block, and the ring ends exactly where
// committing the rows one at a time would leave it.
func (l *loader) ingest(raw []byte) {
	w, rowBytes := l.w, 8*l.w
	raw = raw[:len(raw)-len(raw)%rowBytes]
	l.reserve(len(raw) / rowBytes)
	capRows := len(l.buf) / w
	block := rowBytes * max(1, 4096/rowBytes)
	for len(raw) > 0 {
		// Find the run of finite rows ahead a block of rows at a time,
		// and row by row only inside a block holding a non-finite word.
		run := 0
		for run < len(raw) && allFinite(raw[run:min(run+block, len(raw))]) {
			run = min(run+block, len(raw))
		}
		for run < len(raw) && allFinite(raw[run:run+rowBytes]) {
			run += rowBytes
		}
		// Each row takes the slot after the newest: a free one while the
		// ring is filling, the oldest row's once it is full. The run goes
		// in as segments split at the wrap.
		for src := raw[:run]; len(src) > 0; {
			p := (l.head + l.n) % capRows
			seg := min(len(src)/rowBytes, capRows-p)
			decodeInto(l.buf[p*w:(p+seg)*w], src[:seg*rowBytes])
			fill := min(seg, capRows-l.n)
			l.n, l.head = l.n+fill, (l.head+seg-fill)%capRows
			src = src[seg*rowBytes:]
		}
		// Drop the corrupt row that ended the run rather than poison
		// training.
		raw = raw[min(run+rowBytes, len(raw)):]
	}
}

// reserve makes room for extra more rows, at least doubling the storage
// and never exceeding maxSamples rows. It only ever runs while the ring
// is still filling (head == 0), so the held rows are one prefix.
func (l *loader) reserve(extra int) {
	capRows := len(l.buf) / l.w
	need := min(l.n+extra, maxSamples)
	if need <= capRows {
		return
	}
	grown := make([]float64, min(max(need, 2*capRows), maxSamples)*l.w)
	copy(grown, l.buf[:l.n*l.w])
	l.buf = grown
}

// allFinite reports whether every little-endian float64 in b is a finite
// number, in one branch-free pass: a word's exponent bits are all ones
// exactly when adding 1 to them carries into the sign bit.
func allFinite(b []byte) bool {
	const expMask, expOne = 0x7ff << 52, 1 << 52
	le := binary.LittleEndian
	var carry uint64
	for ; len(b) >= 32; b = b[32:] {
		carry |= (le.Uint64(b)&expMask + expOne) | (le.Uint64(b[8:])&expMask + expOne) |
			(le.Uint64(b[16:])&expMask + expOne) | (le.Uint64(b[24:])&expMask + expOne)
	}
	for ; len(b) >= 8; b = b[8:] {
		carry |= le.Uint64(b)&expMask + expOne
	}
	return carry>>63 == 0
}

// littleEndian reports whether this host stores a float64 the way the
// staged arrays do.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeInto fills dst with the little-endian float64s in src, 8 bytes
// each. On a little-endian host that is a byte copy into dst's memory.
func decodeInto(dst []float64, src []byte) {
	if littleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), src)
		return
	}
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
	}
}
