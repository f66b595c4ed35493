// Snapshot serialization: the encode half of the .snap save/load path.
//
// A .snap file is a snapfile container holding everything a serving process
// needs to answer queries for one app without re-running the §3.3 static
// extraction or re-embedding the framework catalog:
//
//	META      fingerprints (format constants, catalog and interner CRCs)
//	APP_IR    the app IR in the compact apk binary codec
//	INTERNER  the textproc.Interner symbol table (words + flags)
//	CAT_*     the full-catalog phrase table: per-entry metadata plus the
//	          flattened scan matrix with its prescreen sketch
//	per release r (sections relSecBase + r*relSecStride + …):
//	  REL_META  the extracted inventories (APIs, URIs, intents, messages,
//	            method phrases, GUIs) as offset-indexed string records
//	  REL_VECS  every loose phrase vector, one contiguous float block
//	  REL_M*    the method-phrase matrix (data / sketch projections / residuals)
//	  REL_I*    the invisible-label matrix (same three blocks)
//
// Float blocks are written as raw little-endian float64 rows, 8-byte aligned
// by the container, so the loader reinterprets them in place (zero copy).
// Cheap derivations (the call graph, exception sites, permissions, the
// invisible-row index) are intentionally NOT serialized: apg.Build is two
// orders of magnitude cheaper than the embedding work, and re-deriving keeps
// the file free of redundant state that could disagree with itself.
//
// Everything is emitted in deterministic order — slices in extraction order,
// releases in app order, no timestamps — so the same IR always produces the
// same bytes. CI compiles the seed app twice and compares with cmp(1).
package core

import (
	"fmt"
	"sync"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/sdk"
	"reviewsolver/internal/snapfile"
	"reviewsolver/internal/wordvec"
)

// Section IDs of the snapshot container.
const (
	secMeta     = 1
	secAppIR    = 2
	secInterner = 3
	secCatMeta  = 4
	secCatData  = 5
	secCatProj  = 6
	secCatRes   = 7
	secCatPerm  = 8

	// Per-release sections live at relSecBase + releaseIndex*relSecStride
	// plus one of the rel* offsets.
	relSecBase   = 0x100
	relSecStride = 0x10
	relMeta      = 0
	relVecs      = 1
	relMData     = 2
	relMProj     = 3
	relMRes      = 4
	relIData     = 5
	relIProj     = 6
	relIRes      = 7
)

// relSection returns the section ID of one per-release block.
func relSection(release, which int) uint32 {
	return uint32(relSecBase + release*relSecStride + which)
}

// internerPayload encodes the process interner's symbol table once; its
// checksum doubles as the vocabulary fingerprint in META.
var (
	internerPayloadOnce sync.Once
	internerPayloadVal  []byte
)

func internerPayload() []byte {
	internerPayloadOnce.Do(func() {
		words, flags := defaultInterner().Export()
		e := snapfile.NewEnc(1 << 20)
		e.U32(uint32(len(words)))
		for i := range words {
			e.Str(words[i])
			e.U16(flags[i])
		}
		internerPayloadVal = e.Bytes()
	})
	return internerPayloadVal
}

// internerCRC is the process vocabulary fingerprint — the checksum of
// internerPayload, computed once so loads compare CRCs instead of rehashing
// the symbol table.
var (
	internerCRCOnce sync.Once
	internerCRCVal  uint32
)

func internerCRC() uint32 {
	internerCRCOnce.Do(func() { internerCRCVal = snapfile.Checksum(internerPayload()) })
	return internerCRCVal
}

// catalogFingerprint checksums the identity-bearing fields of every catalog
// API in order. A snapshot written against a different catalog (count or
// content) is rejected at load.
func catalogFingerprint(c *sdk.Catalog) uint32 {
	e := snapfile.NewEnc(1 << 15)
	for _, api := range c.APIs() {
		e.Str(api.Signature())
		e.Str(api.Description)
		e.Str(api.Permission)
		e.StrSlice(api.Exceptions)
	}
	return snapfile.Checksum(e.Bytes())
}

// cachedCatalogFingerprint memoizes catalogFingerprint for the last catalog
// seen. The catalog is a process-wide constant in practice, so both encode
// and every load hit the cache after the first call.
var catCRCCache struct {
	sync.Mutex
	c   *sdk.Catalog
	crc uint32
}

func cachedCatalogFingerprint(c *sdk.Catalog) uint32 {
	catCRCCache.Lock()
	defer catCRCCache.Unlock()
	if catCRCCache.c != c {
		catCRCCache.crc = catalogFingerprint(c)
		catCRCCache.c = c
	}
	return catCRCCache.crc
}

// EncodeSnapshot serializes a snapshot plus the app IR it was computed from
// into a .snap image. Releases not yet extracted are precomputed first, so
// callers can pass a fresh NewSnapshot. An app whose releases are out of
// time order returns apk.CheckReleaseOrder's *apk.ReleaseOrderError: the
// loader rejects such an image, so it could never serve.
func EncodeSnapshot(sn *Snapshot, app *apk.App) ([]byte, error) {
	if err := app.CheckReleaseOrder(); err != nil {
		return nil, err
	}
	sn.PrecomputeApp(app)
	s := sn.solver

	w := snapfile.NewWriter()

	meta := snapfile.NewEnc(128)
	meta.Str(app.Package)
	meta.U32(uint32(len(app.Releases)))
	meta.U32(uint32(wordvec.Dim))
	meta.U32(uint32(wordvec.BasisSize()))
	meta.F64(wordvec.DefaultThreshold)
	meta.U32(uint32(len(s.catalog.APIs())))
	meta.U32(cachedCatalogFingerprint(s.catalog))
	meta.U32(internerCRC())
	w.Add(secMeta, meta.Bytes())

	ir := snapfile.NewEnc(1 << 17)
	app.AppendBinary(ir)
	w.Add(secAppIR, ir.Bytes())

	w.Add(secInterner, internerPayload())

	encodeCatalog(w, sn.catalogVecs)
	for ri, r := range app.Releases {
		if err := encodeRelease(w, ri, sn.StaticFor(r)); err != nil {
			return nil, fmt.Errorf("release %s: %w", r.Version, err)
		}
	}
	return w.Bytes(), nil
}

func encodeCatalog(w *snapfile.Writer, t *catalogTable) {
	meta := snapfile.NewEnc(1 << 14)
	meta.U32(uint32(len(t.entries)))
	nouns := 0
	for i := range t.entries {
		nouns += len(t.entries[i].permNouns)
	}
	meta.U32(uint32(nouns))
	perm := snapfile.NewEnc(1 << 14)
	for i := range t.entries {
		e := &t.entries[i]
		meta.U32(uint32(t.rowStart[i+1] - t.rowStart[i]))
		meta.StrSlice(e.permNouns)
		if len(e.permNouns) > 0 {
			for _, f := range e.permVec {
				perm.F64(f)
			}
		}
	}
	w.Add(secCatMeta, meta.Bytes())
	proj, res := t.matrix.Sketch()
	w.Add(secCatData, snapfile.Float64Bytes(t.matrix.Data()))
	w.Add(secCatProj, snapfile.Float64Bytes(proj))
	w.Add(secCatRes, snapfile.Float64Bytes(res))
	w.Add(secCatPerm, perm.Bytes())
}

func encodeRelease(w *snapfile.Writer, ri int, info *StaticInfo) error {
	if err := encodeReleaseMeta(w, ri, info); err != nil {
		return err
	}
	mProj, mRes := info.methodMatrix.Sketch()
	w.Add(relSection(ri, relMData), snapfile.Float64Bytes(info.methodMatrix.Data()))
	w.Add(relSection(ri, relMProj), snapfile.Float64Bytes(mProj))
	w.Add(relSection(ri, relMRes), snapfile.Float64Bytes(mRes))

	iProj, iRes := info.invisibleMatrix.Sketch()
	w.Add(relSection(ri, relIData), snapfile.Float64Bytes(info.invisibleMatrix.Data()))
	w.Add(relSection(ri, relIProj), snapfile.Float64Bytes(iProj))
	w.Add(relSection(ri, relIRes), snapfile.Float64Bytes(iRes))
	return nil
}

// encodeReleaseMeta writes the inventory (REL_META) and loose-vector
// (REL_VECS) sections of one release.
func encodeReleaseMeta(w *snapfile.Writer, ri int, info *StaticInfo) error {
	meta := snapfile.NewEnc(1 << 15)
	meta.Str(info.Release.Version)

	// String-arena totals (see snapfile.StrArena): every string-slice
	// element and every StrSlice2 inner list in this section, so the loader
	// carves all of them out of two allocations.
	elems, lists := 0, 0
	for i := range info.APIs {
		elems += len(info.APIs[i].Classes)
		lists += len(info.APIs[i].Phrases)
		for _, p := range info.APIs[i].Phrases {
			elems += len(p)
		}
	}
	for i := range info.URIs {
		elems += len(info.URIs[i].Nouns) + len(info.URIs[i].Classes)
	}
	for i := range info.Intents {
		elems += len(info.Intents[i].Nouns) + len(info.Intents[i].Classes)
	}
	for i := range info.Messages {
		elems += len(info.Messages[i].Classes)
	}
	for i := range info.MethodPhrases {
		elems += len(info.MethodPhrases[i].Words)
	}
	lists += len(info.descWords)
	for _, ws := range info.descWords {
		elems += len(ws)
	}
	for i := range info.GUIs {
		g := &info.GUIs[i]
		elems += len(g.Visible) + len(g.WidgetIDs)
		lists += len(g.InvisibleWords)
		for _, ws := range g.InvisibleWords {
			elems += len(ws)
		}
	}
	meta.U32(uint32(elems))
	meta.U32(uint32(lists))

	// APIs reference the shared catalog by entry index; their loose phrase
	// vectors open the REL_VECS block.
	var vecs []float64
	appendVec := func(v *wordvec.Vector) { vecs = append(vecs, v[:]...) }

	meta.U32(uint32(len(info.APIs)))
	for i := range info.APIs {
		u := &info.APIs[i]
		idx, err := catalogIndexOf(u.API)
		if err != nil {
			return err
		}
		meta.U32(idx)
		meta.StrSlice(u.Classes)
		meta.StrSlice2(u.Phrases)
		if len(u.PhraseVecs) != len(u.Phrases) {
			return fmt.Errorf("api %s: %d vecs vs %d phrases", u.API.Signature(), len(u.PhraseVecs), len(u.Phrases))
		}
		for j := range u.PhraseVecs {
			appendVec(&u.PhraseVecs[j])
		}
	}

	meta.U32(uint32(len(info.URIs)))
	for i := range info.URIs {
		u := &info.URIs[i]
		meta.Str(u.URI.URI)
		meta.Str(u.URI.Permission)
		meta.StrSlice(u.Nouns)
		meta.StrSlice(u.Classes)
		appendVec(&info.uriNounVecs[i])
	}

	meta.U32(uint32(len(info.Intents)))
	for i := range info.Intents {
		u := &info.Intents[i]
		meta.Str(u.Action)
		meta.StrSlice(u.Nouns)
		meta.StrSlice(u.Classes)
		if len(info.intentNounVecs[i]) != len(u.Nouns) {
			return fmt.Errorf("intent %s: %d vecs vs %d nouns", u.Action, len(info.intentNounVecs[i]), len(u.Nouns))
		}
		for j := range info.intentNounVecs[i] {
			appendVec(&info.intentNounVecs[i][j])
		}
	}

	meta.U32(uint32(len(info.Messages)))
	for i := range info.Messages {
		meta.Str(info.Messages[i].Text)
		meta.StrSlice(info.Messages[i].Classes)
		meta.Str(info.normMessages[i])
	}

	meta.U32(uint32(len(info.MethodPhrases)))
	for i := range info.MethodPhrases {
		p := &info.MethodPhrases[i]
		meta.Str(p.Method.Class)
		meta.Str(p.Method.Name)
		meta.StrSlice(p.Words)
		meta.Bool(p.FromSummary)
	}

	meta.StrSlice2(info.descWords)

	meta.U32(uint32(len(info.GUIs)))
	for i := range info.GUIs {
		g := &info.GUIs[i]
		meta.Str(g.Activity)
		meta.Str(g.LayoutID)
		meta.StrSlice(g.Visible)
		meta.StrSlice(g.WidgetIDs)
		meta.StrSlice2(g.InvisibleWords)
	}

	w.Add(relSection(ri, relMeta), meta.Bytes())
	w.Add(relSection(ri, relVecs), snapfile.Float64Bytes(vecs))
	return nil
}

// catalogIndex maps API signatures to their catalog entry index. The catalog
// is a process-wide constant, so one map serves every encode and load.
var (
	catalogIndexOnce sync.Once
	catalogIndexVal  map[string]uint32
)

func catalogIndexOf(api sdk.API) (uint32, error) {
	catalogIndexOnce.Do(func() {
		apis := sdk.NewCatalog().APIs()
		catalogIndexVal = make(map[string]uint32, len(apis))
		for i, a := range apis {
			catalogIndexVal[a.Signature()] = uint32(i)
		}
	})
	idx, ok := catalogIndexVal[api.Signature()]
	if !ok {
		return 0, fmt.Errorf("api %s not in the catalog", api.Signature())
	}
	return idx, nil
}
