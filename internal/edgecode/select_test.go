package edgecode

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// selectCases are the inputs the selection is checked on: random values,
// all equal, few distinct values, already sorted, signed zeros mixed with
// numbers, and NaNs mixed with numbers and zeros.
func selectCases(rng *rand.Rand) map[string][]float64 {
	cases := map[string][]float64{}
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 8192} {
		random := make([]float64, n)
		equal := make([]float64, n)
		dups := make([]float64, n)
		ascending := make([]float64, n)
		zeros := make([]float64, n)
		nans := make([]float64, n)
		for i := range random {
			random[i] = rng.NormFloat64() * 100
			equal[i] = 3.5
			dups[i] = float64(rng.Intn(4))
			ascending[i] = float64(i)
			switch rng.Intn(3) {
			case 0:
				zeros[i] = math.Copysign(0, -1)
			case 1:
				zeros[i] = 0
			default:
				zeros[i] = rng.Float64() - 0.5
			}
			switch rng.Intn(4) {
			case 0:
				nans[i] = math.NaN()
			case 1:
				nans[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			default:
				nans[i] = rng.NormFloat64()
			}
		}
		for name, c := range map[string][]float64{"random": random, "equal": equal, "dups": dups, "ascending": ascending, "zeros": zeros, "nans": nans} {
			cases[fmt.Sprintf("%s/%d", name, n)] = c
		}
	}
	return cases
}

// ranks are the indices checked for an n-element input: every index for
// small inputs, the ends, the middle and the extractors' rank otherwise.
func ranks(n int) []int {
	if n <= 64 {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	return []int{0, 1, n / 2, rankIndex(1-0.14, n), n - 2, n - 1}
}

// TestSelectKthMatchesSort: selectKth returns, under cmp.Compare, the
// element sort.Float64s and sort.Ints put at each index.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, in := range selectCases(rng) {
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		ints := make([]int, len(in))
		for i, v := range in {
			if !math.IsNaN(v) {
				ints[i] = int(v * 10)
			}
		}
		sortedInts := append([]int(nil), ints...)
		sort.Ints(sortedInts)
		for _, k := range ranks(len(in)) {
			got := selectKth(append([]float64(nil), in...), k)
			if cmp.Compare(got, sorted[k]) != 0 {
				t.Fatalf("%s (n=%d) k=%d: selected %v, sort has %v", name, len(in), k, got, sorted[k])
			}
			if got := selectKth(append([]int(nil), ints...), k); got != sortedInts[k] {
				t.Fatalf("%s ints (n=%d) k=%d: selected %d, sort has %d", name, len(in), k, got, sortedInts[k])
			}
		}
	}
}

// TestPercentilesMatchSort: the extractor's threshold equals the
// sort-based order statistic it replaced.
func TestPercentilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := NewExtractor(0, 0)
	for name, in := range selectCases(rng) {
		pix := make([]float32, len(in))
		for i, v := range in {
			pix[i] = float32(v)
		}
		ref := make([]float64, len(pix))
		for i, v := range pix {
			ref[i] = float64(v)
		}
		sort.Float64s(ref)
		for _, p := range []float64{0, 0.5, 1 - 0.14, 1} {
			k := int(p * float64(len(pix)-1))
			if got := e.percentile(pix, p); cmp.Compare(float64(got), ref[k]) != 0 {
				t.Fatalf("%s p=%v: percentile %v, sort has %v", name, p, got, ref[k])
			}
		}
	}
}
