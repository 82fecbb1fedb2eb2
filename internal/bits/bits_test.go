package bits

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xABCD, 16)
	w.WriteBit(1)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("got %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("got %x", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("got %d", v)
	}
}

func TestBitLenAndPadding(t *testing.T) {
	var w Writer
	w.WriteBits(1, 3)
	if w.BitLen() != 3 || w.Len() != 0 {
		t.Fatalf("BitLen=%d Len=%d", w.BitLen(), w.Len())
	}
	b := w.Bytes()
	if len(b) != 1 {
		t.Fatalf("len=%d", len(b))
	}
	if b[0] != 0b00100000 {
		t.Fatalf("padding wrong: %08b", b[0])
	}
}

func TestUEKnownCodes(t *testing.T) {
	// Classic Exp-Golomb table: 0→1, 1→010, 2→011, 3→00100 …
	cases := []struct {
		v    uint32
		bits string
	}{
		{0, "1"}, {1, "010"}, {2, "011"}, {3, "00100"}, {4, "00101"},
		{5, "00110"}, {6, "00111"}, {7, "0001000"},
	}
	for _, c := range cases {
		var w Writer
		w.WriteUE(c.v)
		got := ""
		r := NewReader(w.Bytes())
		for i := 0; i < len(c.bits); i++ {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatalf("v=%d short code", c.v)
			}
			got += string(rune('0' + b))
		}
		if got != c.bits {
			t.Errorf("UE(%d) = %s want %s", c.v, got, c.bits)
		}
	}
}

func TestUERoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		v %= 1 << 20
		var w Writer
		w.WriteUE(v)
		r := NewReader(w.Bytes())
		got, err := r.ReadUE()
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSERoundTrip(t *testing.T) {
	f := func(v int32) bool {
		v %= 1 << 18
		var w Writer
		w.WriteSE(v)
		r := NewReader(w.Bytes())
		got, err := r.ReadSE()
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSEMapping(t *testing.T) {
	// Order of signed mapping: 0,1,-1,2,-2 must produce increasing UE.
	seq := []int32{0, 1, -1, 2, -2, 3, -3}
	prevLen := 0
	for _, v := range seq {
		var w Writer
		w.WriteSE(v)
		if w.BitLen() < prevLen {
			t.Fatalf("SE(%d) shorter than previous", v)
		}
		prevLen = w.BitLen()
	}
}

func TestMixedStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type op struct {
		kind int
		u    uint32
		s    int32
		n    uint
		raw  uint64
	}
	var ops []op
	var w Writer
	for i := 0; i < 1000; i++ {
		o := op{kind: rng.Intn(3)}
		switch o.kind {
		case 0:
			o.u = uint32(rng.Intn(100000))
			w.WriteUE(o.u)
		case 1:
			o.s = int32(rng.Intn(20001) - 10000)
			w.WriteSE(o.s)
		default:
			o.n = uint(rng.Intn(24) + 1)
			o.raw = uint64(rng.Int63()) & (1<<o.n - 1)
			w.WriteBits(o.raw, o.n)
		}
		ops = append(ops, o)
	}
	r := NewReader(w.Bytes())
	for i, o := range ops {
		switch o.kind {
		case 0:
			got, err := r.ReadUE()
			if err != nil || got != o.u {
				t.Fatalf("op %d UE got %d,%v want %d", i, got, err, o.u)
			}
		case 1:
			got, err := r.ReadSE()
			if err != nil || got != o.s {
				t.Fatalf("op %d SE got %d,%v want %d", i, got, err, o.s)
			}
		default:
			got, err := r.ReadBits(o.n)
			if err != nil || got != o.raw {
				t.Fatalf("op %d raw got %d,%v want %d", i, got, err, o.raw)
			}
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfData {
		t.Fatalf("want ErrOutOfData, got %v", err)
	}
	if _, err := r.ReadUE(); err == nil {
		t.Fatal("ReadUE past end must fail")
	}
}

func TestMalformedUE(t *testing.T) {
	// 40 zero bits with no terminator: malformed.
	r := NewReader(make([]byte, 6))
	if _, err := r.ReadUE(); err == nil {
		t.Fatal("expected malformed-code error")
	}
}

// bitString returns a reader over the bits of s ('0'/'1'), zero-padded to
// whole bytes.
func bitString(s string) *Reader {
	var w Writer
	for _, c := range s {
		w.WriteBit(int(c - '0'))
	}
	return NewReader(w.Bytes())
}

// TestUEBounds: the 32-zero prefix reaches exactly math.MaxUint32 (the
// longest code WriteUE emits); one more in the suffix is an error, not a
// value wrapped to 0.
func TestUEBounds(t *testing.T) {
	zeros := strings.Repeat("0", 32)
	top := bitString(zeros + "1" + strings.Repeat("0", 32))
	if v, err := top.ReadUE(); err != nil || v != math.MaxUint32 {
		t.Fatalf("2^32-1: got %d, %v", v, err)
	}
	var w Writer
	w.WriteUE(math.MaxUint32)
	if v, err := NewReader(w.Bytes()).ReadUE(); err != nil || v != math.MaxUint32 {
		t.Fatalf("WriteUE(MaxUint32) reads back %d, %v", v, err)
	}
	over := bitString(zeros + "1" + strings.Repeat("0", 31) + "1")
	if v, err := over.ReadUE(); err == nil {
		t.Fatalf("2^32 decoded as %d with a nil error", v)
	}
}

// TestSEBounds: the largest unsigned code maps to 2^31, one past
// math.MaxInt32, and is an error rather than math.MinInt32; the code below
// it is -(2^31-1).
func TestSEBounds(t *testing.T) {
	zeros := strings.Repeat("0", 32)
	over := bitString(zeros + "1" + strings.Repeat("0", 32)) // u = 2^32-1
	if v, err := over.ReadSE(); err == nil {
		t.Fatalf("u = 2^32-1 decoded as %d with a nil error", v)
	}
	below := bitString(strings.Repeat("0", 31) + strings.Repeat("1", 32)) // u = 2^32-2
	if v, err := below.ReadSE(); err != nil || v != -math.MaxInt32 {
		t.Fatalf("u = 2^32-2: got %d, %v", v, err)
	}
	for _, v := range []int32{math.MaxInt32, -math.MaxInt32} {
		var w Writer
		w.WriteSE(v)
		if got, err := NewReader(w.Bytes()).ReadSE(); err != nil || got != v {
			t.Fatalf("WriteSE(%d) reads back %d, %v", v, got, err)
		}
	}
}

// TestWriteSEPanicsOnMinInt32: math.MinInt32 has no signed Exp-Golomb code
// ReadSE could return, so WriteSE refuses it instead of writing the code
// for 0.
func TestWriteSEPanicsOnMinInt32(t *testing.T) {
	var w Writer
	defer func() {
		if recover() == nil {
			t.Fatalf("WriteSE(MinInt32) wrote %d bits instead of panicking", w.BitLen())
		}
	}()
	w.WriteSE(math.MinInt32)
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining=%d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining=%d", r.Remaining())
	}
}

func TestWriteBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w Writer
	w.WriteBits(0, 65)
}

// TestAppendBitExact checks that writing a bit sequence through several
// fragment writers joined with Append yields exactly the stream a single
// writer produces, for every split point and fragment alignment.
func TestAppendBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type op struct {
		v uint64
		n uint
	}
	ops := make([]op, 200)
	for i := range ops {
		n := uint(rng.Intn(24) + 1)
		ops[i] = op{v: rng.Uint64() & (1<<n - 1), n: n}
	}
	var ref Writer
	for _, o := range ops {
		ref.WriteBits(o.v, o.n)
	}
	want := ref.Bytes()

	for trial := 0; trial < 50; trial++ {
		// Split the ops into random fragments, each written alone.
		var frags []*Writer
		cur := &Writer{}
		for i, o := range ops {
			cur.WriteBits(o.v, o.n)
			if rng.Intn(4) == 0 && i != len(ops)-1 {
				frags = append(frags, cur)
				cur = &Writer{}
			}
		}
		frags = append(frags, cur)

		var joined Writer
		for _, f := range frags {
			joined.Append(f)
		}
		got := joined.Bytes()
		if len(got) != len(want) {
			t.Fatalf("trial %d: joined %d bytes, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: byte %d = %#x, want %#x", trial, i, got[i], want[i])
			}
		}
	}
}

// TestAppendDoesNotMutateSource checks Append leaves the fragment reusable.
func TestAppendDoesNotMutateSource(t *testing.T) {
	var frag Writer
	frag.WriteBits(0b101, 3)
	var a, b Writer
	a.WriteBit(1)
	a.Append(&frag)
	b.WriteBit(1)
	b.Append(&frag)
	ab, bb := a.Bytes(), b.Bytes()
	if len(ab) != len(bb) || ab[0] != bb[0] {
		t.Fatalf("Append mutated its source: %x vs %x", ab, bb)
	}
	if frag.BitLen() != 3 {
		t.Fatalf("fragment BitLen=%d after Append, want 3", frag.BitLen())
	}
}
