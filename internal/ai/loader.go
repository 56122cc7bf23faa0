package ai

import (
	"encoding/binary"
	"math"
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
// displaces a good one, even when the ring is full.
func (l *loader) ingest(raw []byte) {
	w := l.w
	rowBytes := 8 * w
	l.reserve(len(raw) / rowBytes)
	capRows := len(l.buf) / w
	for ; len(raw) >= rowBytes; raw = raw[rowBytes:] {
		if !finiteRow(raw[:rowBytes]) {
			continue // drop corrupt samples rather than poison training
		}
		// The slot after the newest row: free while the ring is filling,
		// the oldest row once it is full.
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

// finiteRow reports whether every little-endian float64 in b is a finite
// number (exponent bits not all ones).
func finiteRow(b []byte) bool {
	const expMask = 0x7ff << 52
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b)&expMask == expMask {
			return false
		}
	}
	return true
}
