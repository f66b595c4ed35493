package textproc

// LevenshteinBounded returns the exact edit distance when it is <= k and
// k+1 otherwise. It is what the spell repairer calls in its inner loop: the
// repair threshold is 1 in practice, where a direct one-edit check is O(n)
// instead of the full O(n·m) dynamic program, and larger thresholds use a
// banded DP that only visits the 2k+1 diagonals that can stay within k.
func LevenshteinBounded(a, b string, k int) int {
	la, lb := len(a), len(b)
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	if k < 0 || diff > k {
		return k + 1
	}
	if a == b {
		return 0
	}
	if la == 0 || lb == 0 {
		return la + lb // within k: the length gap was checked above
	}
	if k == 1 {
		return oneEditDistance(a, b)
	}
	// Banded DP: cell (i,j) with |i-j| > k can never end within k, so only
	// the band j in [i-k, i+k] is computed.
	const inf = 1 << 30
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb && j <= k; j++ {
		prev[j] = j
	}
	for j := k + 1; j <= lb; j++ {
		prev[j] = inf
	}
	for i := 1; i <= la; i++ {
		lo, hi := i-k, i+k
		if lo < 1 {
			lo = 1
		}
		if hi > lb {
			hi = lb
		}
		rowMin := inf
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
			rowMin = i // column 0 is inside the band when i <= k
		}
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := prev[j-1] + cost
			if prev[j]+1 < d {
				d = prev[j] + 1
			}
			if cur[j-1]+1 < d {
				d = cur[j-1] + 1
			}
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		if hi < lb {
			cur[hi+1] = inf
		}
		if rowMin > k {
			return k + 1
		}
		prev, cur = cur, prev
	}
	if prev[lb] > k {
		return k + 1
	}
	return prev[lb]
}

// oneEditDistance returns the edit distance of two unequal strings whose
// lengths differ by at most 1, capped at 2: 1 when a single substitution,
// insertion, or deletion separates them, 2 otherwise.
func oneEditDistance(a, b string) int {
	if len(a) == len(b) {
		mismatches := 0
		for i := 0; i < len(a); i++ {
			if a[i] != b[i] {
				mismatches++
				if mismatches > 1 {
					return 2
				}
			}
		}
		return 1 // a != b, so exactly one substitution
	}
	long, short := a, b
	if len(long) < len(short) {
		long, short = short, long
	}
	// One deletion from long must yield short: skip the first mismatch.
	i := 0
	for i < len(short) && long[i] == short[i] {
		i++
	}
	for j := i; j < len(short); j++ {
		if long[j+1] != short[j] {
			return 2
		}
	}
	return 1
}
