package rng

import "math/bits"

// Jump moves a generator a fixed number of draws ahead in one step, so
// independent workers can each start at their own offset of one stream.
//
// A xoshiro256** state update is linear over GF(2): every bit of the new
// state is an XOR of bits of the old one. n updates are therefore one
// 256×256 bit matrix, which NewJump builds by repeated squaring of the
// one-step matrix. Advance then costs one XOR of four words per set bit
// of the state, the same whatever n is.
type Jump struct {
	// cols[i] is the state that state bit i alone turns into after n
	// updates; a state's image is the XOR of the columns of its set bits.
	cols [256][4]uint64
}

// NewJump returns the jump that advances a generator by exactly n draws:
// afterwards it yields what it would have yielded after n calls to Uint64.
func NewJump(n uint64) *Jump {
	step := &Jump{}
	for i := range step.cols {
		var r RNG
		r.s[i/64] = 1 << (i % 64)
		r.Uint64()
		step.cols[i] = r.s
	}
	j := &Jump{}
	for i := range j.cols {
		j.cols[i][i/64] = 1 << (i % 64)
	}
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			j = step.compose(j)
		}
		if n > 1 {
			step = step.compose(step)
		}
	}
	return j
}

// Advance moves r ahead by the jump's number of draws.
func (j *Jump) Advance(r *RNG) { r.s = j.apply(r.s) }

// apply maps a state through the matrix.
func (j *Jump) apply(s [4]uint64) [4]uint64 {
	var out [4]uint64
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			c := &j.cols[w*64+bits.TrailingZeros64(word)]
			out[0] ^= c[0]
			out[1] ^= c[1]
			out[2] ^= c[2]
			out[3] ^= c[3]
		}
	}
	return out
}

// compose returns the matrix that applies k first and then j.
func (j *Jump) compose(k *Jump) *Jump {
	out := &Jump{}
	for i := range k.cols {
		out.cols[i] = j.apply(k.cols[i])
	}
	return out
}
