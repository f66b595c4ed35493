package wordvec

import (
	"math"
	"math/rand"
	"testing"
)

// randomUnit returns a random unit vector.
func randomUnit(rng *rand.Rand) Vector {
	var v Vector
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(&v)
	return v
}

// phraseCorpus embeds a spread of in-lexicon, out-of-lexicon, and mixed
// phrases — the vector population the real scans see.
func phraseCorpus(m *Model) []Vector {
	phrases := [][]string{
		{"fetch", "mail"}, {"get", "email"}, {"send", "message"},
		{"upload", "photo"}, {"save", "picture"}, {"delete", "file"},
		{"open", "app"}, {"login", "account"}, {"play", "video"},
		{"connect", "server"}, {"zorblax", "quux"}, {"frobnicate", "widget"},
		{"crash", "launch"}, {"sync", "calendar"}, {"read", "article"},
		{"show", "password"}, {"record", "audio"}, {"browse", "website"},
		{"parse", "xml", "config"}, {"validate", "email", "address"},
	}
	out := make([]Vector, 0, len(phrases))
	for _, p := range phrases {
		out = append(out, m.PhraseVector(p))
	}
	return out
}

// TestDotEqualsCosineOnUnitVectors: on the unit-or-zero vectors the model
// produces, Dot must agree with Cosine to float tolerance (they differ only
// by the redundant norm division), and exactly reproduce a naive dot.
func TestDotEqualsCosineOnUnitVectors(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	for i, a := range vecs {
		for _, b := range vecs {
			dot := Dot(a, b)
			cos := Cosine(a, b)
			if math.Abs(dot-cos) > 1e-12 {
				t.Fatalf("vec %d: Dot=%v Cosine=%v diverge beyond tolerance", i, dot, cos)
			}
		}
	}
	// Zero vector: both conventions yield 0.
	var zero Vector
	if Dot(zero, vecs[0]) != 0 {
		t.Fatal("Dot with zero vector must be 0")
	}
	if Cosine(zero, vecs[0]) != 0 {
		t.Fatal("Cosine with zero vector must be 0")
	}
}

// TestDotUnrollMatchesNaive: the 4-way unrolled kernel must match a naive
// sequential dot to within reassociation tolerance on arbitrary vectors.
func TestDotUnrollMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := randomUnit(rng), randomUnit(rng)
		var naive float64
		for i := 0; i < Dim; i++ {
			naive += a[i] * b[i]
		}
		if math.Abs(Dot(a, b)-naive) > 1e-12 {
			t.Fatalf("trial %d: unrolled %v vs naive %v", trial, Dot(a, b), naive)
		}
	}
}

func TestDotBatch(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	mat := NewMatrix(len(vecs))
	for _, v := range vecs {
		mat.Append(v)
	}
	q := m.PhraseVector([]string{"fetch", "mail"})
	out := make([]float64, mat.Rows())
	DotBatch(q, mat.Data(), out)
	for r, v := range vecs {
		if got := out[r]; got != Dot(q, v) {
			t.Fatalf("row %d: DotBatch %v != Dot %v", r, got, Dot(q, v))
		}
	}
}

// TestPrescreenBoundIsSound is the soundness property of the prescreen: the
// anchor-projection bound must never fall below the true dot (beyond the
// epsilon margin), for random unit vectors and for real phrase vectors.
func TestPrescreenBoundIsSound(t *testing.T) {
	m := NewModel()
	rng := rand.New(rand.NewSource(21))
	var cands []Vector
	cands = append(cands, phraseCorpus(m)...)
	for i := 0; i < 200; i++ {
		cands = append(cands, randomUnit(rng))
	}
	mat := NewMatrix(len(cands))
	for _, v := range cands {
		mat.Append(v)
	}
	mat.Finish()

	queries := append(phraseCorpus(m), randomUnit(rng), randomUnit(rng))
	for qi, qv := range queries {
		q := PrepareQuery(qv)
		for r, c := range cands {
			d := Dot(qv, c)
			b := mat.bound(&q, r)
			if b < d-prescreenEps {
				t.Fatalf("query %d row %d: bound %v < dot %v — prescreen unsound", qi, r, b, d)
			}
		}
	}
}

// nearThresholdRows returns unit rows whose dot with the unit query q sits
// within ~1e-12 of th: th+k·step for k in −2..2, each appended twice so the
// scan also meets exact duplicates on the threshold.
func nearThresholdRows(rng *rand.Rand, q Vector, th, step float64) []Vector {
	var out []Vector
	for k := -2; k <= 2; k++ {
		t := math.Max(-1, math.Min(1, th+float64(k)*step))
		// u is a random unit direction orthogonal to q, so t·q + √(1−t²)·u
		// is a unit row with dot(q, row) = t up to rounding.
		u := randomUnit(rng)
		p := Dot(u, q)
		for i := range u {
			u[i] -= p * q[i]
		}
		normalize(&u)
		s := math.Sqrt(1 - t*t)
		var row Vector
		for i := range row {
			row[i] = t*q[i] + s*u[i]
		}
		out = append(out, row, row)
	}
	return out
}

// nearZeroRows returns the zero row plus random directions scaled down to
// tiny norms, where the prescreen's residual and projection terms all sit
// near underflow.
func nearZeroRows(rng *rand.Rand, scale float64) []Vector {
	out := []Vector{{}}
	for _, sc := range []float64{scale, 1e-12, 1e-150, 1e-300} {
		v := randomUnit(rng)
		for i := range v {
			v[i] *= sc
		}
		out = append(out, v)
	}
	return out
}

// checkScanMatchesBruteForce asserts that ScanThresholdCount and
// AnyAtLeastCount over cands agree exactly with a brute-force Dot loop:
// the same rows in row order with bit-identical dots, counts that cover
// every row, and chunk-partition invariant totals.
func checkScanMatchesBruteForce(t *testing.T, cands []Vector, qv Vector, th float64) {
	t.Helper()
	mat := NewMatrix(len(cands))
	for _, v := range cands {
		mat.Append(v)
	}
	mat.Finish()
	q := PrepareQuery(qv)

	var want []int
	for r, c := range cands {
		if Dot(qv, c) >= th {
			want = append(want, r)
		}
	}
	var got []int
	sc := mat.ScanThresholdCount(&q, th, 0, mat.Rows(), func(r int, d float64) {
		if d != Dot(qv, cands[r]) {
			t.Fatalf("th=%v row %d: yielded dot %v != Dot %v", th, r, d, Dot(qv, cands[r]))
		}
		got = append(got, r)
	})
	if len(got) != len(want) {
		t.Fatalf("th=%v: scan found rows %v, brute force %v", th, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("th=%v: row %d differs (%d vs %d)", th, i, got[i], want[i])
		}
	}
	if sc.Pruned+sc.Evaluated != mat.Rows() || sc.Matched != len(want) {
		t.Fatalf("th=%v: counts %+v for %d rows, %d brute-force matches", th, sc, mat.Rows(), len(want))
	}
	var merged ScanCount
	mid := mat.Rows() / 2
	merged.Merge(mat.ScanThresholdCount(&q, th, 0, mid, func(int, float64) {}))
	merged.Merge(mat.ScanThresholdCount(&q, th, mid, mat.Rows(), func(int, float64) {}))
	if merged != sc {
		t.Fatalf("th=%v: chunked counts %+v != whole-scan counts %+v", th, merged, sc)
	}

	hit, asc := mat.AnyAtLeastCount(&q, th, 0, mat.Rows())
	if hit != (len(want) > 0) {
		t.Fatalf("th=%v: AnyAtLeastCount hit=%v, brute force %d matches", th, hit, len(want))
	}
	if hit && asc.Pruned+asc.Evaluated != want[0]+1 {
		t.Fatalf("th=%v: early exit touched %d rows, first match is row %d", th, asc.Pruned+asc.Evaluated, want[0])
	}
	if !hit && asc.Pruned+asc.Evaluated != mat.Rows() {
		t.Fatalf("th=%v: missed scan touched %d of %d rows", th, asc.Pruned+asc.Evaluated, mat.Rows())
	}
}

// TestScanThresholdMatchesBruteForce: the prescreened scan must yield
// exactly the rows a brute-force dot pass finds, for thresholds around the
// operating point — over real phrase vectors and random rows, plus the
// adversarial rows seeded corpora never produce: rows within ~1e-12 of the
// threshold, exact duplicates, and near-zero rows.
func TestScanThresholdMatchesBruteForce(t *testing.T) {
	m := NewModel()
	rng := rand.New(rand.NewSource(3))
	var cands []Vector
	cands = append(cands, phraseCorpus(m)...)
	for i := 0; i < 300; i++ {
		cands = append(cands, randomUnit(rng))
	}
	for _, th := range []float64{0.2, 0.5, DefaultThreshold, 0.9} {
		for _, qv := range phraseCorpus(m) {
			rows := append([]Vector(nil), cands...)
			rows = append(rows, nearThresholdRows(rng, qv, th, 1e-12)...)
			rows = append(rows, nearZeroRows(rng, 1e-6)...)
			rows = append(rows, cands[:10]...)
			checkScanMatchesBruteForce(t, rows, qv, th)
		}
	}
}

// FuzzScan drives checkScanMatchesBruteForce with fuzzer-chosen query,
// threshold, near-threshold spacing, and near-zero scale: whatever the
// rounding, the prescreened scans must agree exactly with brute force.
func FuzzScan(f *testing.F) {
	f.Add(int64(1), DefaultThreshold, 1e-12, 1e-6)
	f.Add(int64(2), DefaultThreshold, 0.0, 1e-300)
	f.Add(int64(3), 0.2, 1e-15, 1e-9)
	f.Add(int64(4), 0.999999, 1e-13, 0.0)
	f.Add(int64(5), -0.5, 1e-10, 1e-3)
	m := NewModel()
	corpus := phraseCorpus(m)
	f.Fuzz(func(t *testing.T, seed int64, th, step, scale float64) {
		if math.IsNaN(th) || math.Abs(th) > 1 {
			th = DefaultThreshold
		}
		if math.IsNaN(step) || math.Abs(step) > 1e-6 {
			step = 1e-12
		}
		if math.IsNaN(scale) || math.Abs(scale) > 1e-3 {
			scale = 1e-6
		}
		rng := rand.New(rand.NewSource(seed))
		qv := corpus[int(uint64(seed)%uint64(len(corpus)))]
		if seed%3 == 0 {
			qv = randomUnit(rng)
		}
		rows := append([]Vector(nil), corpus...)
		for i := 0; i < 32; i++ {
			rows = append(rows, randomUnit(rng))
		}
		rows = append(rows, nearThresholdRows(rng, qv, th, step)...)
		rows = append(rows, nearZeroRows(rng, scale)...)
		rows = append(rows, rows[len(corpus):len(corpus)+4]...)
		checkScanMatchesBruteForce(t, rows, qv, th)
	})
}

// TestScanCountConsistent: pruned+evaluated covers every row, matched
// equals the brute-force match count, and the early-exit AnyAtLeastCount
// books exactly the rows it touched.
func TestScanCountConsistent(t *testing.T) {
	m := NewModel()
	cands := phraseCorpus(m)
	mat := NewMatrix(len(cands))
	for _, v := range cands {
		mat.Append(v)
	}
	mat.Finish()
	qv := m.PhraseVector([]string{"fetch", "mail"})
	q := PrepareQuery(qv)
	sc := mat.ScanThresholdCount(&q, DefaultThreshold, 0, mat.Rows(), func(int, float64) {})
	if sc.Pruned+sc.Evaluated != mat.Rows() {
		t.Fatalf("pruned %d + evaluated %d != rows %d", sc.Pruned, sc.Evaluated, mat.Rows())
	}
	want := 0
	for _, c := range cands {
		if Dot(qv, c) >= DefaultThreshold {
			want++
		}
	}
	if sc.Matched != want {
		t.Fatalf("matched %d != brute force %d", sc.Matched, want)
	}

	hit, asc := mat.AnyAtLeastCount(&q, DefaultThreshold, 0, mat.Rows())
	if hit != (want > 0) {
		t.Fatalf("AnyAtLeastCount hit=%v, brute force %d matches", hit, want)
	}
	if asc.Matched > 1 {
		t.Fatalf("early-exit scan reported %d matches", asc.Matched)
	}
	if asc.Pruned+asc.Evaluated > mat.Rows() {
		t.Fatalf("early-exit scan touched %d rows of %d", asc.Pruned+asc.Evaluated, mat.Rows())
	}

	var merged ScanCount
	mid := mat.Rows() / 2
	merged.Merge(mat.ScanThresholdCount(&q, DefaultThreshold, 0, mid, func(int, float64) {}))
	merged.Merge(mat.ScanThresholdCount(&q, DefaultThreshold, mid, mat.Rows(), func(int, float64) {}))
	if merged != sc {
		t.Fatalf("chunked counts %+v != whole-scan counts %+v", merged, sc)
	}
}

// TestAnchorBasisOrthonormal: the Gram–Schmidt basis must be orthonormal to
// float tolerance (the projection identity the bound relies on).
func TestAnchorBasisOrthonormal(t *testing.T) {
	basis := anchorBasis()
	if len(basis) == 0 || len(basis) > prescreenBasisMax {
		t.Fatalf("basis size %d out of range (max %d)", len(basis), prescreenBasisMax)
	}
	for i := range basis {
		for j := range basis {
			d := Dot(basis[i], basis[j])
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("basis[%d]·basis[%d] = %v, want %v", i, j, d, want)
			}
		}
	}
}

// TestMatrixFromParts: a matrix reassembled from its serialized blocks must
// scan identically to the original — same sketch, same prune/evaluate/match
// decisions — and reject mis-shaped blocks.
func TestMatrixFromParts(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	orig := NewMatrix(len(vecs))
	for _, v := range vecs {
		orig.Append(v)
	}
	orig.Finish()

	proj, res := orig.Sketch()
	if len(res) != orig.Rows() || len(proj) != orig.Rows()*BasisSize() {
		t.Fatalf("Sketch shapes %d/%d for %d rows", len(proj), len(res), orig.Rows())
	}
	re, err := MatrixFromParts(orig.Data(), proj, res)
	if err != nil {
		t.Fatalf("MatrixFromParts: %v", err)
	}
	q := PrepareQuery(m.PhraseVector([]string{"receive", "email"}))
	type hit struct {
		row int
		dot float64
	}
	scan := func(mx *Matrix) ([]hit, ScanCount) {
		var hits []hit
		sc := mx.ScanThresholdCount(&q, 0.3, 0, mx.Rows(), func(r int, d float64) {
			hits = append(hits, hit{r, d})
		})
		return hits, sc
	}
	wantHits, wantSC := scan(orig)
	gotHits, gotSC := scan(re)
	if len(gotHits) != len(wantHits) || gotSC != wantSC {
		t.Fatalf("rebuilt scan: %v %+v, want %v %+v", gotHits, gotSC, wantHits, wantSC)
	}
	for i := range wantHits {
		if gotHits[i] != wantHits[i] {
			t.Fatalf("hit %d: %+v != %+v", i, gotHits[i], wantHits[i])
		}
	}

	// Sketchless rebuild: same matches, nothing pruned.
	plain, err := MatrixFromParts(orig.Data(), nil, nil)
	if err != nil {
		t.Fatalf("MatrixFromParts without sketch: %v", err)
	}
	plainHits, plainSC := scan(plain)
	if len(plainHits) != len(wantHits) || plainSC.Pruned != 0 {
		t.Fatalf("sketchless scan: %v %+v", plainHits, plainSC)
	}

	// Shape validation.
	if _, err := MatrixFromParts(orig.Data()[:Dim-1], nil, nil); err == nil {
		t.Fatal("accepted data not a multiple of Dim")
	}
	if _, err := MatrixFromParts(orig.Data(), proj[:len(proj)-1], res); err == nil {
		t.Fatal("accepted short projections")
	}
	if _, err := MatrixFromParts(orig.Data(), proj, res[:len(res)-1]); err == nil {
		t.Fatal("accepted short residuals")
	}
}

// TestMatrixFromPartsEmpty: the zero-row round trip.
func TestMatrixFromPartsEmpty(t *testing.T) {
	m, err := MatrixFromParts(nil, nil, nil)
	if err != nil || m.Rows() != 0 {
		t.Fatalf("empty rebuild: %v rows=%d", err, m.Rows())
	}
}

// TestRowVectors: the zero-copy []Vector view matches Row contents and
// aliases the block.
func TestRowVectors(t *testing.T) {
	m := NewModel()
	vecs := phraseCorpus(m)
	mx := NewMatrix(len(vecs))
	for _, v := range vecs {
		mx.Append(v)
	}
	view, err := RowVectors(mx.Data())
	if err != nil {
		t.Fatalf("RowVectors: %v", err)
	}
	if len(view) != mx.Rows() {
		t.Fatalf("view rows %d, want %d", len(view), mx.Rows())
	}
	for i := range view {
		if view[i] != vecs[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	if _, err := RowVectors(mx.Data()[:Dim+1]); err == nil {
		t.Fatal("accepted block not a multiple of Dim")
	}
	if v, err := RowVectors(nil); err != nil || v != nil {
		t.Fatalf("empty block: %v %v", v, err)
	}
}

// DotBatch writes the dot product of query against every row of the
// flattened row-major matrix (len(matrix) = len(out)×Dim) into out. For
// unit-or-zero rows the outputs are the cosine similarities.
func DotBatch(query Vector, matrix []float64, out []float64) {
	for r := range out {
		out[r] = dotRow(&query, matrix[r*Dim:(r+1)*Dim])
	}
}
