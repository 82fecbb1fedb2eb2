package fec

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzProtectRecover protects a frame the input chooses — 1 to 64
// packets of 0 to 1500 bytes, a redundancy from 0 to about 8 (past the
// one-block cap of 255 shards), either Kind — erases the shards the input's
// mask names and recovers. Protect and Recover must not panic, every
// packet Recover returns must equal the one protected, and Reed–Solomon
// must report the frame complete whenever at most M shards are lost.
func FuzzProtectRecover(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0), false, []byte{})
	f.Add(uint8(9), int64(2), uint8(8), false, []byte{0b101})
	f.Add(uint8(9), int64(3), uint8(8), true, []byte{0b11})
	f.Add(uint8(63), int64(4), uint8(255), false, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(31), int64(5), uint8(16), true, []byte{0x01, 0x80, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, count uint8, seed int64, red uint8, xor bool, lost []byte) {
		rng := rand.New(rand.NewSource(seed))
		packets := make([][]byte, 1+int(count)%64)
		for i := range packets {
			packets[i] = make([]byte, rng.Intn(1501))
			rng.Read(packets[i])
		}
		kind := KindReedSolomon
		if xor {
			kind = KindXOR
		}
		p, err := Protect(packets, float64(red)/32, kind)
		if err != nil {
			t.Fatalf("Protect(%d packets, redundancy %v, %v): %v", len(packets), float64(red)/32, kind, err)
		}
		received := make([]bool, p.K+p.M)
		erased := 0
		for i := range received {
			received[i] = i/8 >= len(lost) || lost[i/8]>>(i%8)&1 == 0
			if !received[i] {
				erased++
			}
		}
		got, complete := p.Recover(received)
		if len(got) != len(packets) {
			t.Fatalf("Recover returned %d packets, want %d", len(got), len(packets))
		}
		for i, g := range got {
			if g != nil && !bytes.Equal(g, packets[i]) {
				t.Fatalf("%v k=%d m=%d: recovered packet %d differs from the original", kind, p.K, p.M, i)
			}
			if g == nil && complete {
				t.Fatalf("%v k=%d m=%d: complete without packet %d", kind, p.K, p.M, i)
			}
		}
		if kind == KindReedSolomon && erased <= p.M && !complete {
			t.Fatalf("Reed-Solomon k=%d m=%d with %d shards lost: not complete", p.K, p.M, erased)
		}
	})
}
