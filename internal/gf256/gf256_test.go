package gf256

import (
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	f := func(a, b, c byte) bool {
		// Commutativity.
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		// Associativity.
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity.
		if Mul(a, Add(b, c)) != Add(Mul(a, b), Mul(a, c)) {
			return false
		}
		// Identities.
		if Add(a, 0) != a || Mul(a, 1) != a || Mul(a, 0) != 0 {
			return false
		}
		// Additive inverse (self-inverse under XOR).
		return Add(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a=%d: a*Inv(a) = %d", a, Mul(byte(a), inv))
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpPow(t *testing.T) {
	if Exp(0) != 1 {
		t.Fatalf("Exp(0) = %d", Exp(0))
	}
	if Exp(1) != 2 {
		t.Fatalf("Exp(1) = %d", Exp(1))
	}
	// Generator has order 255.
	if Exp(255) != 1 {
		t.Fatalf("Exp(255) = %d", Exp(255))
	}
	// Pow matches repeated Mul.
	for _, a := range []byte{2, 3, 29, 255} {
		acc := byte(1)
		for n := 0; n < 20; n++ {
			if Pow(a, n) != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, Pow(a, n), acc)
			}
			acc = Mul(acc, a)
		}
	}
	if Pow(0, 0) != 1 || Pow(0, 5) != 0 {
		t.Fatal("Pow with zero base wrong")
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{1, 2, 3, 0, 255}
	dst := []byte{10, 20, 30, 40, 50}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = dst[i] ^ Mul(7, src[i])
	}
	MulSlice(7, src, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	// c=0 is a no-op.
	before := append([]byte(nil), dst...)
	MulSlice(0, src, dst)
	for i := range dst {
		if dst[i] != before[i] {
			t.Fatal("MulSlice(0) modified dst")
		}
	}
	// c=1 is XOR.
	MulSlice(1, src, dst)
	for i := range dst {
		if dst[i] != before[i]^src[i] {
			t.Fatal("MulSlice(1) is not plain XOR")
		}
	}
}

func TestMatrixIdentityMul(t *testing.T) {
	m := NewMatrix(3, 3)
	vals := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	copy(m.Data, vals)
	out := Identity(3).Mul(m)
	for i := range vals {
		if out.Data[i] != vals[i] {
			t.Fatalf("I*M != M: %v", out.Data)
		}
	}
	out2 := m.Mul(Identity(3))
	for i := range vals {
		if out2.Data[i] != vals[i] {
			t.Fatalf("M*I != M: %v", out2.Data)
		}
	}
}

func TestMatrixInvert(t *testing.T) {
	m := NewMatrix(3, 3)
	copy(m.Data, []byte{1, 2, 3, 4, 5, 6, 7, 8, 10})
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	id := Identity(3)
	for i := range id.Data {
		if prod.Data[i] != id.Data[i] {
			t.Fatalf("M*M^-1 != I: %v", prod.Data)
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []byte{1, 2, 1, 2}) // identical rows
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting singular matrix succeeded")
	}
}

func TestMatrixInvertProperty(t *testing.T) {
	f := func(seed uint64) bool {
		// Build a random 4x4; if invertible, M*M^-1 == I.
		data := make([]byte, 16)
		s := seed
		for i := range data {
			s = s*6364136223846793005 + 1442695040888963407
			data[i] = byte(s >> 33)
		}
		m := NewMatrix(4, 4)
		copy(m.Data, data)
		inv, err := m.Invert()
		if err != nil {
			return true // singular is acceptable
		}
		prod := m.Mul(inv)
		id := Identity(4)
		for i := range id.Data {
			if prod.Data[i] != id.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVandermondeShape(t *testing.T) {
	v := Vandermonde(5, 3)
	if v.Rows != 5 || v.Cols != 3 {
		t.Fatal("wrong shape")
	}
	for r := 0; r < 5; r++ {
		if v.At(r, 0) != 1 {
			t.Fatalf("V[%d][0] = %d, want 1", r, v.At(r, 0))
		}
	}
	if v.At(2, 1) != 2 || v.At(3, 1) != 3 {
		t.Fatal("V[r][1] != r")
	}
}

func TestSubMatrix(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []byte{1, 2, 3, 4, 5, 6})
	s := m.SubMatrix([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(0, 1) != 6 || s.At(1, 0) != 1 || s.At(1, 1) != 2 {
		t.Fatalf("SubMatrix = %v", s.Data)
	}
}

func TestMatrixMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}
