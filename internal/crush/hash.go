// Package crush implements the CRUSH placement algorithm (Weil et al.,
// SC'06) as used by Ceph: controlled, scalable, decentralized placement of
// replicated and erasure-coded data. It provides the rjenkins1 hash, all
// five classic bucket types (uniform, list, tree, straw, straw2), the rule
// engine (take / choose / chooseleaf / emit, firstn and indep variants), and
// map-building utilities.
//
// DeLiBA-K's FPGA replication accelerators are hardware implementations of
// exactly these bucket selection kernels (Table I of the paper); the
// internal/fpga package wraps this package's pure functions with the
// hardware timing model so software and hardware paths place data
// identically.
package crush

const hashSeed uint32 = 1315423911

// hashMix is Robert Jenkins' 96-bit mix function, the core of rjenkins1.
func hashMix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return a, b, c
}

// Hash2 is crush_hash32_rjenkins1_2.
func Hash2(a, b uint32) uint32 {
	hash := hashSeed ^ a ^ b
	x, y := uint32(231232), uint32(1232)
	a, b, hash = hashMix(a, b, hash)
	x, a, hash = hashMix(x, a, hash)
	b, y, hash = hashMix(b, y, hash)
	return hash
}

// Hash3 is crush_hash32_rjenkins1_3.
func Hash3(a, b, c uint32) uint32 {
	hash := hashSeed ^ a ^ b ^ c
	x, y := uint32(231232), uint32(1232)
	a, b, hash = hashMix(a, b, hash)
	c, x, hash = hashMix(c, x, hash)
	y, a, hash = hashMix(y, a, hash)
	b, x, hash = hashMix(b, x, hash)
	y, c, hash = hashMix(y, c, hash)
	return hash
}

// Hash4 is crush_hash32_rjenkins1_4.
func Hash4(a, b, c, d uint32) uint32 {
	hash := hashSeed ^ a ^ b ^ c ^ d
	x, y := uint32(231232), uint32(1232)
	a, b, hash = hashMix(a, b, hash)
	c, d, hash = hashMix(c, d, hash)
	a, x, hash = hashMix(a, x, hash)
	y, b, hash = hashMix(y, b, hash)
	return hash
}
