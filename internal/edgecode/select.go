package edgecode

import (
	"cmp"
	"math/bits"
	"slices"
)

// selectKth reorders a and returns the element a sort of a would put at
// index k, under the order slices.Sort (and so sort.Float64s and
// sort.Ints) uses: cmp.Compare, where a NaN sorts before every number and
// −0 equals +0. It is a quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal values cost one pass; after
// 2·log2(n) partitions it sorts what is left, which bounds the worst case
// at a sort's.
func selectKth[T cmp.Ordered](a []T, k int) T {
	lo, hi := 0, len(a) // a[lo:hi] holds index k
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			break
		}
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch c := cmp.Compare(a[i], p); {
			case c < 0:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case c > 0:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	return a[k]
}

// median3 returns the median of x, y and z under cmp.Compare.
func median3[T cmp.Ordered](x, y, z T) T {
	if cmp.Less(y, x) {
		x, y = y, x
	}
	if cmp.Less(z, y) {
		y = z
		if cmp.Less(y, x) {
			y = x
		}
	}
	return y
}
