// Package gf256 implements arithmetic over the finite field GF(2^8) with
// the AES/Rijndael-compatible primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), plus the matrix operations needed by Reed-Solomon erasure coding.
package gf256

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Poly is the primitive polynomial used to construct the field.
const Poly = 0x11d

var (
	expTable [512]byte // doubled so Mul can skip a mod
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). Division by zero panics.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator (2) raised to the n-th power.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Pow returns a**n.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// nibTable holds the split-nibble product tables for one coefficient c:
// lo[i] = c*i and hi[i] = c*(i<<4), so c*s = lo[s&0x0f] ^ hi[s>>4] with two
// table loads and no data-dependent branches — the word-parallel-friendly
// form of the GF(256) multiply (the same decomposition the SSSE3/NEON
// PSHUFB erasure kernels use; on amd64 the AVX2 kernel consumes the same
// tables directly).
//
// The layout is load-bearing: gfMulXorAVX2 reads lo at offset 0 and hi at
// offset 16 with VBROADCASTI128, so the two arrays must stay adjacent and
// in this order.
type nibTable struct {
	lo, hi [16]byte
}

// nibTables memoises one nibTable per coefficient, built lazily on first
// use. An atomic pointer keeps the lazy build safe under the race detector;
// racing builders produce byte-identical tables, so either store wins.
var nibTables [256]atomic.Pointer[nibTable]

func nibTableFor(c byte) *nibTable {
	if t := nibTables[c].Load(); t != nil {
		return t
	}
	t := new(nibTable)
	for i := 0; i < 16; i++ {
		t.lo[i] = Mul(c, byte(i))
		t.hi[i] = Mul(c, byte(i<<4))
	}
	nibTables[c].Store(t)
	return t
}

// useAVX2 is set on amd64 when the CPU and OS support AVX2; the vector
// kernel runs the same split-nibble decomposition 32 bytes per step via
// PSHUFB table lookups.
var useAVX2 bool

// MulSlice computes dst[i] ^= c * src[i] for all i, the inner loop of
// Reed-Solomon encoding. dst and src must have equal length.
//
// The c==1 path degenerates to a pure XOR and runs 64 bits at a time; other
// coefficients use split-nibble product tables — 32 bytes per step through
// the AVX2 PSHUFB kernel where available, else an 8-way unrolled scalar body.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(src, dst)
		return
	}
	t := nibTableFor(c)
	if useAVX2 {
		if blocks := len(src) >> 5; blocks > 0 {
			gfMulXorAVX2(t, &src[0], &dst[0], blocks)
		}
		tail := len(src) &^ 31
		lo, hi := &t.lo, &t.hi
		for i := tail; i < len(src); i++ {
			s := src[i]
			dst[i] ^= lo[s&0x0f] ^ hi[s>>4]
		}
		return
	}
	mulSliceNib(t, src, dst)
}

// mulSliceNib is the scalar split-nibble kernel: the portable fallback for
// MulSlice when no vector unit is available.
func mulSliceNib(t *nibTable, src, dst []byte) {
	lo, hi := &t.lo, &t.hi
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= lo[s[0]&0x0f] ^ hi[s[0]>>4]
		d[1] ^= lo[s[1]&0x0f] ^ hi[s[1]>>4]
		d[2] ^= lo[s[2]&0x0f] ^ hi[s[2]>>4]
		d[3] ^= lo[s[3]&0x0f] ^ hi[s[3]>>4]
		d[4] ^= lo[s[4]&0x0f] ^ hi[s[4]>>4]
		d[5] ^= lo[s[5]&0x0f] ^ hi[s[5]>>4]
		d[6] ^= lo[s[6]&0x0f] ^ hi[s[6]>>4]
		d[7] ^= lo[s[7]&0x0f] ^ hi[s[7]>>4]
	}
	for i := n; i < len(src); i++ {
		s := src[i]
		dst[i] ^= lo[s&0x0f] ^ hi[s>>4]
	}
}

// xorSlice computes dst ^= src one 64-bit word at a time (the c==1 MulSlice
// path: parity accumulation under an identity coefficient).
func xorSlice(src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// mulSliceLogExp is the pre-optimisation log/exp-table MulSlice, kept as the
// reference implementation for correctness cross-checks and the old-vs-new
// benchmark.
func mulSliceLogExp(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("gf256: non-positive matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Mul returns m×other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: dimension mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			la := int(logTable[a])
			orow := other.Row(k)
			dst := out.Row(r)
			for c, b := range orow {
				if b != 0 {
					dst[c] ^= expTable[la+int(logTable[b])]
				}
			}
		}
	}
	return out
}

// SubMatrix returns the matrix restricted to the given rows.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or an error if the matrix is singular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("gf256: singular matrix (column %d)", col)
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale pivot row to 1.
		p := work.At(col, col)
		if p != 1 {
			ip := Inv(p)
			scaleRow(work.Row(col), ip)
			scaleRow(inv.Row(col), ip)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(work.Row(r), work.Row(col), f)
			addScaledRow(inv.Row(r), inv.Row(col), f)
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(row []byte, c byte) {
	for i := range row {
		row[i] = Mul(row[i], c)
	}
}

// addScaledRow computes dst ^= c*src.
func addScaledRow(dst, src []byte, c byte) {
	MulSlice(c, src, dst)
}

// Vandermonde returns the rows×cols Vandermonde matrix V[r][c] = r^c,
// systematised below by the erasure package.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, Pow(byte(r), c))
		}
	}
	return m
}
