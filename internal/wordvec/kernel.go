// Similarity kernel layer: the dot-only hot path of the §4.1.1/Algorithm 1
// phrase×candidate scans.
//
// Every vector this package hands out is unit-length or zero: computeVector,
// PhraseVector, and hashVector all normalize before returning, and the zero
// vector only appears for empty phrases. For unit-or-zero vectors the cosine
// similarity *is* the plain dot product, so the scan kernel skips the two
// norm accumulations and the sqrt/divide that Cosine pays per candidate.
//
// The kernel operates over a Matrix: candidate vectors flattened row-major
// into one contiguous []float64 block (structure-of-arrays), so a scan walks
// a dense cache-friendly stripe instead of chasing per-candidate structs.
//
// On top of the flat scan sits an exact prescreen. Let U = {u_1..u_K} be an
// orthonormal basis spanning the lexicon's topic/group anchor directions
// (the shared components that carry all above-threshold similarity). Writing
// P for the projection onto span(U) and ⊥ for the orthogonal remainder,
//
//	dot(q, c) = Σ_k (q·u_k)(c·u_k) + dot(q_⊥, c_⊥)
//	          ≤ Σ_k (q·u_k)(c·u_k) + ‖q_⊥‖·‖c_⊥‖      (Cauchy–Schwarz)
//
// The right-hand side needs only the K precomputed anchor projections and
// the residual norm of each side — K+1 multiply-adds instead of Dim — and it
// can never under-estimate the true dot, so skipping a candidate whose bound
// falls short of the threshold (minus a floating-point safety margin) can
// never change which candidates match. Unrelated candidates have near-zero
// shared anchor components and residual products well below the 0.68
// threshold, so the bulk of a catalog scan never touches the full vectors.
package wordvec

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// prescreenEps is the safety margin of the prescreen comparison: a candidate
// is skipped only when its upper bound is below threshold−prescreenEps. The
// Cauchy–Schwarz slack is O(0.1) while accumulated rounding error on 64-dim
// unit vectors is O(1e-15), so the margin is overwhelming in both
// directions.
const prescreenEps = 1e-9

// prescreenBasisMax caps the anchor-basis size K. The prescreen costs K+1
// multiply-adds per candidate against Dim it saves, so K must stay well
// below Dim for the skip to pay.
const prescreenBasisMax = 20

// Dot returns the dot product of two vectors with a 4-way unrolled kernel.
// For the unit-or-zero vectors this package produces, Dot(a, b) is the
// cosine similarity of a and b (see Cosine, which recomputes both norms for
// arbitrary input).
func Dot(a, b Vector) float64 {
	var s0, s1, s2, s3 float64
	for i := 0; i < Dim; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotRow is Dot against one flattened matrix row (len Dim).
func dotRow(a *Vector, row []float64) float64 {
	row = row[:Dim] // one bounds check, then the loop is check-free
	var s0, s1, s2, s3 float64
	for i := 0; i < Dim; i += 4 {
		s0 += a[i] * row[i]
		s1 += a[i+1] * row[i+1]
		s2 += a[i+2] * row[i+2]
		s3 += a[i+3] * row[i+3]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotBatch writes the dot product of query against every row of the
// flattened row-major matrix (len(matrix) = len(out)×Dim) into out. For
// unit-or-zero rows the outputs are the cosine similarities.
func DotBatch(query Vector, matrix []float64, out []float64) {
	for r := range out {
		out[r] = dotRow(&query, matrix[r*Dim:(r+1)*Dim])
	}
}

// Matrix is a structure-of-arrays batch of candidate phrase vectors: the
// vectors flattened row-major into one contiguous block, plus (after Finish)
// the anchor-projection sketch the exact prescreen reads. A finished Matrix
// is immutable and safe for concurrent scans.
type Matrix struct {
	rows int
	data []float64 // rows × Dim, row-major

	// Prescreen sketch (nil until Finish): anchor projections and residual
	// norm per row.
	proj []float64 // rows × K
	res  []float64 // rows
}

// NewMatrix returns an empty matrix with capacity for capRows rows.
func NewMatrix(capRows int) *Matrix {
	return &Matrix{data: make([]float64, 0, capRows*Dim)}
}

// Append adds one candidate vector and returns its row index. Appending
// after Finish is a misuse; the sketch would go stale (Finish again).
func (m *Matrix) Append(v Vector) int {
	r := m.rows
	m.data = append(m.data, v[:]...)
	m.rows++
	return r
}

// Rows returns the number of candidate rows.
func (m *Matrix) Rows() int { return m.rows }

// Row returns the flattened row (len Dim). The returned slice aliases the
// matrix; callers must not write to it.
func (m *Matrix) Row(i int) []float64 { return m.data[i*Dim : (i+1)*Dim] }

// Data returns the flattened row-major block, for DotBatch-style callers.
func (m *Matrix) Data() []float64 { return m.data }

// Finish builds the prescreen sketch: each row's projections onto the
// anchor basis and the norm of what remains. Scans work without it (pure
// DotBatch); with it, rows whose upper bound cannot reach the threshold are
// skipped.
func (m *Matrix) Finish() {
	basis := anchorBasis()
	k := len(basis)
	m.proj = make([]float64, m.rows*k)
	m.res = make([]float64, m.rows)
	var resid Vector
	for r := 0; r < m.rows; r++ {
		row := m.Row(r)
		copy(resid[:], row)
		for bi := range basis {
			p := dotRow(&basis[bi], row)
			m.proj[r*k+bi] = p
			for i := 0; i < Dim; i++ {
				resid[i] -= p * basis[bi][i]
			}
		}
		m.res[r] = math.Sqrt(Dot(resid, resid))
	}
}

// Sketch returns the finished prescreen sketch: the rows×BasisSize anchor
// projections and the per-row residual norms (nil before Finish). The slices
// alias the matrix; callers must treat them as read-only. Snapshot encoding
// serializes them so a loaded matrix skips the Gram–Schmidt projection pass.
func (m *Matrix) Sketch() (proj, res []float64) { return m.proj, m.res }

// MatrixFromParts reassembles a finished Matrix from its serialized blocks:
// the rows×Dim flattened data and the prescreen sketch produced by Sketch.
// The slices are adopted, not copied — pass zero-copy snapshot views to get
// an allocation-free rebuild. Shapes are validated; the sketch may be
// omitted (both nil) for a matrix that was never finished.
func MatrixFromParts(data, proj, res []float64) (*Matrix, error) {
	if len(data)%Dim != 0 {
		return nil, fmt.Errorf("wordvec: matrix data of %d floats is not a multiple of Dim=%d", len(data), Dim)
	}
	rows := len(data) / Dim
	m := &Matrix{rows: rows, data: data}
	if proj == nil && res == nil {
		return m, nil
	}
	if k := BasisSize(); len(proj) != rows*k {
		return nil, fmt.Errorf("wordvec: sketch projections %d, want %d rows × basis %d", len(proj), rows, k)
	}
	if len(res) != rows {
		return nil, fmt.Errorf("wordvec: sketch residuals %d, want %d rows", len(res), rows)
	}
	m.proj, m.res = proj, res
	return m, nil
}

// RowVectors reinterprets a flattened row-major block (len a multiple of
// Dim) as a []Vector view without copying: Vector is [Dim]float64, so rows
// and array elements share one memory layout. The view aliases data;
// callers must treat it as read-only. Snapshot loading uses this to hand
// the per-API []Vector slices out of one contiguous file-backed block.
func RowVectors(data []float64) ([]Vector, error) {
	if len(data)%Dim != 0 {
		return nil, fmt.Errorf("wordvec: vector block of %d floats is not a multiple of Dim=%d", len(data), Dim)
	}
	if len(data) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*Vector)(unsafe.Pointer(&data[0])), len(data)/Dim), nil
}

// Query is a prepared scan query: the phrase vector plus its anchor
// projections and residual norm, computed once and reused across every
// candidate row.
type Query struct {
	Vec  Vector
	proj []float64
	res  float64
}

// PrepareQuery projects a query vector onto the anchor basis for
// prescreened scans.
func PrepareQuery(v Vector) Query {
	basis := anchorBasis()
	q := Query{Vec: v, proj: make([]float64, len(basis))}
	var resid Vector = v
	for bi := range basis {
		p := Dot(basis[bi], v)
		q.proj[bi] = p
		for i := 0; i < Dim; i++ {
			resid[i] -= p * basis[bi][i]
		}
	}
	q.res = math.Sqrt(Dot(resid, resid))
	return q
}

// bound returns the prescreen upper bound on dot(q, row r).
func (m *Matrix) bound(q *Query, r int) float64 {
	k := len(q.proj)
	b := q.res * m.res[r]
	pr := m.proj[r*k : (r+1)*k]
	for i := range pr {
		b += q.proj[i] * pr[i]
	}
	return b
}

// ScanCount tallies how the prescreen behaved over one scan: Pruned rows
// were skipped on the sketch bound alone, Evaluated rows paid a full dot
// product, Matched rows crossed the threshold. Every per-row outcome is a
// pure function of (model, query, row), so counts are exactly reproducible
// and invariant under splitting the row range — the telemetry layer sums
// them per review phrase and cmd/benchgate gates them to catch kernel
// regressions without wall-clock noise.
type ScanCount struct {
	Pruned, Evaluated, Matched int
}

// Merge accumulates the counts of another scan, such as the next row range.
func (c *ScanCount) Merge(o ScanCount) {
	c.Pruned += o.Pruned
	c.Evaluated += o.Evaluated
	c.Matched += o.Matched
}

// ScanThreshold calls yield(row, dot) in row order for every row in
// [start, end) whose dot with the query reaches the threshold. With a
// finished sketch, rows whose upper bound provably cannot reach the
// threshold are skipped without reading their Dim floats; the yielded set is
// identical either way.
func (m *Matrix) ScanThreshold(q *Query, threshold float64, start, end int, yield func(row int, dot float64)) {
	m.ScanThresholdCount(q, threshold, start, end, yield)
}

// ScanThresholdCount is ScanThreshold returning the scan's ScanCount. The
// bookkeeping is three register increments alongside the bound test, so
// the counted scan is the only scan — there is no separate stats pass.
func (m *Matrix) ScanThresholdCount(q *Query, threshold float64, start, end int, yield func(row int, dot float64)) ScanCount {
	var sc ScanCount
	cutoff := threshold - prescreenEps
	for r := start; r < end; r++ {
		if m.res != nil && m.bound(q, r) < cutoff {
			sc.Pruned++
			continue
		}
		sc.Evaluated++
		if d := dotRow(&q.Vec, m.data[r*Dim:(r+1)*Dim]); d >= threshold {
			sc.Matched++
			yield(r, d)
		}
	}
	return sc
}

// AnyAtLeast reports whether any row in [start, end) reaches the threshold,
// stopping at the first hit (the per-entry early break of Algorithm 1).
func (m *Matrix) AnyAtLeast(q *Query, threshold float64, start, end int) bool {
	ok, _ := m.AnyAtLeastCount(q, threshold, start, end)
	return ok
}

// AnyAtLeastCount is AnyAtLeast returning the counts of the rows actually
// touched: because the scan stops at the first hit, Matched is at most 1
// and rows after the hit are neither pruned nor evaluated.
func (m *Matrix) AnyAtLeastCount(q *Query, threshold float64, start, end int) (bool, ScanCount) {
	var sc ScanCount
	cutoff := threshold - prescreenEps
	for r := start; r < end; r++ {
		if m.res != nil && m.bound(q, r) < cutoff {
			sc.Pruned++
			continue
		}
		sc.Evaluated++
		if dotRow(&q.Vec, m.data[r*Dim:(r+1)*Dim]) >= threshold {
			sc.Matched++
			return true, sc
		}
	}
	return false, sc
}

// --- anchor basis ---------------------------------------------------------------

var (
	basisOnce sync.Once
	basisVecs []Vector
)

// BasisSize returns K, the number of orthonormal anchor directions the
// prescreen projects onto.
func BasisSize() int { return len(anchorBasis()) }

// anchorBasis builds (once) an orthonormal basis over the lexicon's shared
// anchor directions: every topic anchor first — topics are few and every
// in-lexicon word carries one — then group anchors in lexicon order until
// the prescreenBasisMax cap. Modified Gram–Schmidt; near-dependent
// directions (tiny residual) are dropped rather than normalized into noise.
func anchorBasis() []Vector {
	basisOnce.Do(func() {
		var raw []Vector
		seenTopic := make(map[string]struct{})
		for _, g := range synonymGroups {
			if _, dup := seenTopic[g.topic]; dup {
				continue
			}
			seenTopic[g.topic] = struct{}{}
			raw = append(raw, hashVector("topic:"+g.topic))
		}
		for _, g := range synonymGroups {
			if len(raw) >= prescreenBasisMax {
				break
			}
			raw = append(raw, hashVector("group:"+g.anchor()))
		}
		for _, v := range raw {
			if len(basisVecs) >= prescreenBasisMax {
				break
			}
			for _, u := range basisVecs {
				p := Dot(u, v)
				for i := 0; i < Dim; i++ {
					v[i] -= p * u[i]
				}
			}
			n := math.Sqrt(Dot(v, v))
			if n < 1e-6 {
				continue
			}
			for i := 0; i < Dim; i++ {
				v[i] /= n
			}
			basisVecs = append(basisVecs, v)
		}
	})
	return basisVecs
}
