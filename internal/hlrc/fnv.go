package hlrc

import (
	"encoding/binary"
	"math/bits"
)

// fnv64a is a 64-bit FNV-1a register producing exactly hash/fnv's
// New64a sums, inlined so StateFingerprint pays no hash.Hash interface
// call per word, and able to skip zero runs: a zero byte's step is
// h = (h ^ 0) * prime = h * prime, so n zero bytes in a row are one
// multiplication by prime^n. Mostly-zero input — small integers in
// 8-byte words, untouched page-table chunks, sparse frames — costs its
// non-zero bytes.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k: the step for the up to eight zero
// high bytes of a word.
var fnvPrimePow = func() (pow [9]fnv64a) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// zeros hashes n zero bytes, by square-and-multiply.
func (h *fnv64a) zeros(n int) {
	x, sq := *h, fnvPrime64
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			x *= sq
		}
		sq *= sq
	}
	*h = x
}

// word hashes v as its eight little-endian bytes.
func (h *fnv64a) word(v uint64) {
	x := *h
	high := bits.LeadingZeros64(v) / 8 // zero bytes at the word's end
	for k := 8 - high; k > 0; k-- {
		x = (x ^ fnv64a(v&0xff)) * fnvPrime64
		v >>= 8
	}
	*h = x * fnvPrimePow[high]
}

// int hashes v as hash/fnv would its 8-byte little-endian encoding.
func (h *fnv64a) int(v int) { h.word(uint64(int64(v))) }

// bytes hashes b, a word at a time while eight bytes remain, runs of
// zero words as one step each.
func (h *fnv64a) bytes(b []byte) {
	run := 0
	for ; len(b) >= 8; b = b[8:] {
		v := binary.LittleEndian.Uint64(b)
		if v == 0 {
			run += 8
			continue
		}
		h.zeros(run)
		run = 0
		h.word(v)
	}
	h.zeros(run)
	x := *h
	for _, c := range b {
		x = (x ^ fnv64a(c)) * fnvPrime64
	}
	*h = x
}
