// Snapshot deserialization: reconstruct a serving-ready Snapshot from a
// .snap image in well under a millisecond.
//
// The budget breaks down as: read + container validation (checksums), the
// binary IR decode, one apg.Build per release (~¼ ms total for a seeded
// app), and pure slice stitching. The expensive state — every phrase
// embedding and prescreen sketch — is reinterpreted in place from the file
// image (snapfile.Float64View / wordvec.RowVectors), never recomputed and
// never copied row by row. The solver components (catalog, embedding model,
// tagger, Q&A index) come from a process-wide template built once by
// loadTemplate; each load takes a struct copy, exactly like NewWithSnapshot.
//
// Localization served from a loaded snapshot is byte-identical to the
// in-memory NewSnapshot path — property-tested across seeds and worker
// counts in snapio_test.go.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"reviewsolver/internal/apg"
	"reviewsolver/internal/apk"
	"reviewsolver/internal/gui"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/wordvec"
)

// ErrSnapshotIncompatible reports a structurally valid snapshot written
// against a different build: catalog content, vocabulary, embedding
// dimension, or prescreen basis changed since the file was compiled.
// Recompile the snapshot with the current binary.
var ErrSnapshotIncompatible = errors.New("core: snapshot incompatible with this build")

// loadTemplate builds (once) the frozen solver whose components every
// loaded snapshot shares. Constructing it costs one New(); every LoadSnapshot
// afterwards pays only a struct copy.
var (
	loadTemplateOnce sync.Once
	loadTemplateVal  *Solver
)

func loadTemplate() *Solver {
	loadTemplateOnce.Do(func() { loadTemplateVal = New() })
	return loadTemplateVal
}

// LoadSnapshot reads a .snap file written by cmd/snapshotc
// and reconstructs the Snapshot plus the app IR it embeds. Options apply to
// the snapshot's template solver (WithClassifier and WithObserver are the
// expected ones); options that replace the embedding model or vocabulary
// are incompatible with the precomputed state and must not be passed.
// Corrupt input returns a typed snapfile error; a valid file from a
// different build returns ErrSnapshotIncompatible.
func LoadSnapshot(path string, opts ...Option) (*Snapshot, *apk.App, error) {
	r, err := snapfile.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	return loadSnapshot(r, opts...)
}

// LoadSnapshotBytes is LoadSnapshot over an in-memory image. The returned
// Snapshot and app IR alias data — both float blocks and strings are views
// into the image — so the caller must not modify it afterwards.
func LoadSnapshotBytes(data []byte, opts ...Option) (*Snapshot, *apk.App, error) {
	r, err := snapfile.Open(data)
	if err != nil {
		return nil, nil, err
	}
	return loadSnapshot(r, opts...)
}

func loadSnapshot(r *snapfile.Reader, opts ...Option) (*Snapshot, *apk.App, error) {
	s := *loadTemplate()
	for _, opt := range opts {
		opt(&s)
	}

	meta, err := r.MustSection(secMeta)
	if err != nil {
		return nil, nil, err
	}
	md := snapfile.NewDec(meta)
	md.Str() // app package, informational
	// Plain U32, not Count: the releases live in other sections, so the
	// count is not bounded by this payload's size.
	releaseCount := int(md.U32())
	dim := md.U32()
	basis := md.U32()
	threshold := md.F64()
	catCount := md.U32()
	catCRC := md.U32()
	internCRC := md.U32()
	if err := md.Done(); err != nil {
		return nil, nil, err
	}
	if int(dim) != wordvec.Dim || int(basis) != wordvec.BasisSize() || threshold != wordvec.DefaultThreshold {
		return nil, nil, fmt.Errorf("%w: dim %d / basis %d / threshold %v, build has %d / %d / %v",
			ErrSnapshotIncompatible, dim, basis, threshold, wordvec.Dim, wordvec.BasisSize(), wordvec.DefaultThreshold)
	}
	if int(catCount) != len(s.catalog.APIs()) || catCRC != cachedCatalogFingerprint(s.catalog) {
		return nil, nil, fmt.Errorf("%w: catalog fingerprint mismatch", ErrSnapshotIncompatible)
	}
	// Open already verified the interner section's payload against its table
	// checksum, so comparing that checksum to the process vocabulary CRC
	// (computed once) proves the file's symbol table matches this build
	// without rehashing it on every load.
	tableCRC, ok := r.SectionChecksum(secInterner)
	if !ok {
		return nil, nil, fmt.Errorf("%w: missing section %#x", snapfile.ErrCorrupt, uint32(secInterner))
	}
	if tableCRC != internCRC || tableCRC != internerCRC() {
		return nil, nil, fmt.Errorf("%w: vocabulary fingerprint mismatch", ErrSnapshotIncompatible)
	}

	irPayload, err := r.MustSection(secAppIR)
	if err != nil {
		return nil, nil, err
	}
	app, err := apk.DecodeBinary(snapfile.NewDecZeroCopy(irPayload))
	if err != nil {
		return nil, nil, err
	}
	if len(app.Releases) != releaseCount {
		return nil, nil, fmt.Errorf("%w: META declares %d releases, IR has %d",
			snapfile.ErrCorrupt, releaseCount, len(app.Releases))
	}
	// ReleaseBefore assumes time order; an image that breaks it would
	// match reviews to the wrong release, so it is corrupt.
	if err := app.CheckReleaseOrder(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", snapfile.ErrCorrupt, err)
	}

	table, err := loadCatalogTable(r, &s)
	if err != nil {
		return nil, nil, err
	}

	sn := &Snapshot{
		catalogVecs: table,
		static:      make(map[*apk.Release]*staticEntry, len(app.Releases)),
	}
	// Releases are independent — each reads only its own sections of the
	// immutable Reader and builds its own StaticInfo — so they reconstruct
	// in parallel. Errors are collected per slot to keep reporting
	// deterministic (first release in app order wins).
	infos := make([]*StaticInfo, len(app.Releases))
	errs := make([]error, len(app.Releases))
	if runtime.GOMAXPROCS(0) > 1 && len(app.Releases) > 1 {
		var wg sync.WaitGroup
		for ri, release := range app.Releases {
			wg.Add(1)
			go func(ri int, release *apk.Release) {
				defer wg.Done()
				infos[ri], errs[ri] = loadRelease(r, ri, release, table)
			}(ri, release)
		}
		wg.Wait()
	} else {
		// On a single P the goroutines would only add scheduling overhead.
		for ri, release := range app.Releases {
			infos[ri], errs[ri] = loadRelease(r, ri, release, table)
		}
	}
	for ri, release := range app.Releases {
		if errs[ri] != nil {
			return nil, nil, fmt.Errorf("release %s: %w", release.Version, errs[ri])
		}
		e := &staticEntry{info: infos[ri]}
		e.once.Do(func() {}) // consume the once: the entry is prefilled
		sn.static[release] = e
	}

	s.staticCache = nil
	s.catalogVecCache = nil
	s.snap = sn
	sn.solver = &s
	return sn, app, nil
}

// loadCatalogTable stitches the catalog scan table back together: matrix,
// sketch and permission vectors are zero-copy views of the file image.
func loadCatalogTable(r *snapfile.Reader, s *Solver) (*catalogTable, error) {
	data, proj, res, err := matrixParts(r, secCatData, secCatProj, secCatRes)
	if err != nil {
		return nil, err
	}
	matrix, err := wordvec.MatrixFromParts(data, proj, res)
	if err != nil {
		return nil, fmt.Errorf("%w: catalog matrix: %v", snapfile.ErrCorrupt, err)
	}

	metaPayload, err := r.MustSection(secCatMeta)
	if err != nil {
		return nil, err
	}
	permPayload, err := r.MustSection(secCatPerm)
	if err != nil {
		return nil, err
	}
	permView, err := snapfile.Float64View(permPayload)
	if err != nil {
		return nil, err
	}
	permVecs, err := wordvec.RowVectors(permView)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapfile.ErrCorrupt, err)
	}

	d := snapfile.NewDecZeroCopy(metaPayload)
	count := d.Count(4)
	apis := s.catalog.APIs()
	if count != len(apis) && d.Err() == nil {
		return nil, fmt.Errorf("%w: %d catalog entries, build has %d", ErrSnapshotIncompatible, count, len(apis))
	}
	arena := snapfile.NewStrArena(d.Count(4), 0)
	t := &catalogTable{
		entries:  make([]catalogAPI, 0, count),
		matrix:   matrix,
		rowStart: make([]int32, 1, count+1),
	}
	row, permUsed := 0, 0
	for i := 0; i < count && d.Err() == nil; i++ {
		vecCount := int(d.U32())
		entry := catalogAPI{api: apis[i], permNouns: d.StrSliceIn(arena)}
		if d.Err() != nil {
			break
		}
		if row+vecCount > matrix.Rows() {
			return nil, fmt.Errorf("%w: catalog rows overflow at entry %d", snapfile.ErrCorrupt, i)
		}
		row += vecCount
		if len(entry.permNouns) > 0 {
			if permUsed >= len(permVecs) {
				return nil, fmt.Errorf("%w: catalog permission vectors underflow", snapfile.ErrCorrupt)
			}
			entry.permVec = permVecs[permUsed]
			permUsed++
		}
		t.entries = append(t.entries, entry)
		t.rowStart = append(t.rowStart, int32(row))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if row != matrix.Rows() || permUsed != len(permVecs) || !arena.Drained() {
		return nil, fmt.Errorf("%w: catalog table consumed %d/%d rows, %d/%d permission vectors",
			snapfile.ErrCorrupt, row, matrix.Rows(), permUsed, len(permVecs))
	}
	return t, nil
}

// matrixParts reads one matrix's three float sections as zero-copy views.
func matrixParts(r *snapfile.Reader, dataID, projID, resID uint32) (data, proj, res []float64, err error) {
	for _, part := range []struct {
		id  uint32
		out *[]float64
	}{{dataID, &data}, {projID, &proj}, {resID, &res}} {
		payload, err := r.MustSection(part.id)
		if err != nil {
			return nil, nil, nil, err
		}
		view, err := snapfile.Float64View(payload)
		if err != nil {
			return nil, nil, nil, err
		}
		*part.out = view
	}
	return data, proj, res, nil
}

// loadRelease reconstructs one release's StaticInfo: inventories from
// REL_META, loose vectors as sub-slices of the REL_VECS view, matrices as
// zero-copy parts, and the cheap derivations (graph, exceptions,
// permissions, invisible-row index) recomputed from the decoded IR.
func loadRelease(r *snapfile.Reader, ri int, release *apk.Release, table *catalogTable) (*StaticInfo, error) {
	info, err := loadReleaseMeta(r, ri, release, table)
	if err != nil {
		return nil, err
	}

	// Matrices: zero-copy views over the file image.
	mData, mProj, mRes, err := matrixParts(r, relSection(ri, relMData), relSection(ri, relMProj), relSection(ri, relMRes))
	if err != nil {
		return nil, err
	}
	if info.methodMatrix, err = wordvec.MatrixFromParts(mData, mProj, mRes); err != nil {
		return nil, fmt.Errorf("%w: method matrix: %v", snapfile.ErrCorrupt, err)
	}
	iData, iProj, iRes, err := matrixParts(r, relSection(ri, relIData), relSection(ri, relIProj), relSection(ri, relIRes))
	if err != nil {
		return nil, err
	}
	if info.invisibleMatrix, err = wordvec.MatrixFromParts(iData, iProj, iRes); err != nil {
		return nil, fmt.Errorf("%w: invisible matrix: %v", snapfile.ErrCorrupt, err)
	}
	if info.methodMatrix.Rows() != len(info.MethodPhrases) {
		return nil, fmt.Errorf("%w: %d method rows for %d phrases", snapfile.ErrCorrupt, info.methodMatrix.Rows(), len(info.MethodPhrases))
	}
	// Rebuild the invisible-row index in the exact nested order
	// buildScanState emits: one row per non-empty widget-id word list.
	rows := info.invisibleMatrix.Rows()
	info.invisibleRows = make([]invisibleRef, 0, rows)
	for gi := range info.GUIs {
		for wi, words := range info.GUIs[gi].InvisibleWords {
			if len(words) == 0 {
				continue
			}
			if len(info.invisibleRows) == rows {
				return nil, fmt.Errorf("%w: invisible matrix underflow", snapfile.ErrCorrupt)
			}
			info.invisibleRows = append(info.invisibleRows, invisibleRef{GUI: int32(gi), Widget: int32(wi)})
		}
	}
	if len(info.invisibleRows) != rows {
		return nil, fmt.Errorf("%w: invisible matrix has %d unused rows", snapfile.ErrCorrupt, rows-len(info.invisibleRows))
	}
	return info, nil
}

// loadReleaseMeta reconstructs the inventory half of one release — the
// REL_META records with their loose REL_VECS vectors — leaving the two scan
// matrices unset.
func loadReleaseMeta(r *snapfile.Reader, ri int, release *apk.Release, table *catalogTable) (*StaticInfo, error) {
	metaPayload, err := r.MustSection(relSection(ri, relMeta))
	if err != nil {
		return nil, err
	}
	vecPayload, err := r.MustSection(relSection(ri, relVecs))
	if err != nil {
		return nil, err
	}
	vecView, err := snapfile.Float64View(vecPayload)
	if err != nil {
		return nil, err
	}
	looseVecs, err := wordvec.RowVectors(vecView)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapfile.ErrCorrupt, err)
	}
	vecOff := 0
	takeVecs := func(n int) ([]wordvec.Vector, error) {
		if vecOff+n > len(looseVecs) {
			return nil, fmt.Errorf("%w: loose vector block underflow", snapfile.ErrCorrupt)
		}
		v := looseVecs[vecOff : vecOff+n : vecOff+n]
		vecOff += n
		return v, nil
	}

	g := apg.Build(release)
	info := &StaticInfo{
		Release:     release,
		Graph:       g,
		Permissions: append([]string(nil), release.Manifest.Permissions...),
		Exceptions:  g.ExceptionSites(),
	}
	if act, ok := release.StartingActivity(); ok {
		info.StartingActivity = act.Name
	}

	d := snapfile.NewDecZeroCopy(metaPayload)
	if v := d.Str(); d.Err() == nil && v != release.Version {
		return nil, fmt.Errorf("%w: section for version %q, IR release is %q", snapfile.ErrCorrupt, v, release.Version)
	}
	// The declared string-arena totals size two backing arrays for every
	// string list in this section (see snapfile.StrArena).
	arena := snapfile.NewStrArena(d.Count(4), d.Count(4))

	apiCount := d.Count(4)
	if apiCount > 0 {
		info.APIs = make([]APIUse, 0, apiCount)
		info.apiClasses = make(map[string][]string, apiCount)
	}
	for i := 0; i < apiCount && d.Err() == nil; i++ {
		idx := int(d.U32())
		if d.Err() == nil && idx >= len(table.entries) {
			return nil, fmt.Errorf("%w: api catalog index %d of %d", snapfile.ErrCorrupt, idx, len(table.entries))
		}
		use := APIUse{Classes: d.StrSliceIn(arena), Phrases: d.StrSlice2In(arena)}
		if d.Err() != nil {
			break
		}
		use.API = table.entries[idx].api
		if use.PhraseVecs, err = takeVecs(len(use.Phrases)); err != nil {
			return nil, err
		}
		info.APIs = append(info.APIs, use)
		info.apiClasses[use.API.Class+"."+use.API.Method] = use.Classes
	}

	uriCount := d.Count(4)
	for i := 0; i < uriCount && d.Err() == nil; i++ {
		u := URIUse{}
		u.URI.URI = d.Str()
		u.URI.Permission = d.Str()
		u.Nouns = d.StrSliceIn(arena)
		u.Classes = d.StrSliceIn(arena)
		info.URIs = append(info.URIs, u)
	}
	if d.Err() == nil {
		if info.uriNounVecs, err = takeVecs(uriCount); err != nil {
			return nil, err
		}
	}

	intentCount := d.Count(4)
	if intentCount > 0 {
		info.intentNounVecs = make([][]wordvec.Vector, 0, intentCount)
	}
	for i := 0; i < intentCount && d.Err() == nil; i++ {
		u := IntentUse{Action: d.Str(), Nouns: d.StrSliceIn(arena), Classes: d.StrSliceIn(arena)}
		if d.Err() != nil {
			break
		}
		vv, err := takeVecs(len(u.Nouns))
		if err != nil {
			return nil, err
		}
		info.Intents = append(info.Intents, u)
		info.intentNounVecs = append(info.intentNounVecs, vv)
	}

	msgCount := d.Count(4)
	if msgCount > 0 {
		info.Messages = make([]MessageUse, 0, msgCount)
		info.normMessages = make([]string, 0, msgCount)
	}
	for i := 0; i < msgCount && d.Err() == nil; i++ {
		info.Messages = append(info.Messages, MessageUse{Text: d.Str(), Classes: d.StrSliceIn(arena)})
		info.normMessages = append(info.normMessages, d.Str())
	}

	mpCount := d.Count(4)
	if mpCount > 0 {
		info.MethodPhrases = make([]MethodPhrase, 0, mpCount)
	}
	for i := 0; i < mpCount && d.Err() == nil; i++ {
		class, name := d.Str(), d.Str()
		p := MethodPhrase{Words: d.StrSliceIn(arena), FromSummary: d.Bool()}
		if d.Err() != nil {
			break
		}
		m, ok := g.MethodRef(class, name)
		if !ok {
			return nil, fmt.Errorf("%w: method phrase for unknown method %s.%s", snapfile.ErrCorrupt, class, name)
		}
		p.Method = m
		info.MethodPhrases = append(info.MethodPhrases, p)
	}

	info.descWords = d.StrSlice2In(arena)
	if d.Err() == nil && len(info.descWords) != len(info.APIs) {
		return nil, fmt.Errorf("%w: %d descWords for %d APIs", snapfile.ErrCorrupt, len(info.descWords), len(info.APIs))
	}

	guiCount := d.Count(4)
	if guiCount > 0 {
		info.GUIs = make([]gui.ActivityGUI, 0, guiCount)
	}
	for i := 0; i < guiCount && d.Err() == nil; i++ {
		info.GUIs = append(info.GUIs, gui.ActivityGUI{
			Activity:       d.Str(),
			LayoutID:       d.Str(),
			Visible:        d.StrSliceIn(arena),
			WidgetIDs:      d.StrSliceIn(arena),
			InvisibleWords: d.StrSlice2In(arena),
		})
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if !arena.Drained() {
		return nil, fmt.Errorf("%w: declared string arena not consumed (%d elems, %d lists left)",
			snapfile.ErrCorrupt, len(arena.Elems), len(arena.Lists))
	}
	if vecOff != len(looseVecs) {
		return nil, fmt.Errorf("%w: loose vector block has %d unused rows", snapfile.ErrCorrupt, len(looseVecs)-vecOff)
	}
	return info, nil
}
