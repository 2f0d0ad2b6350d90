package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// Out-of-core read path (DESIGN.md "Out-of-core execution"): a LazyView is a
// long-lived handle on the store's layout at open time that materializes
// decoded units on demand through the byte-budgeted cache in segcache.go,
// and LazySource federates the per-unit tables behind the sparql.Source
// surface — so the unchanged query engine runs over a store whose resident
// decoded set is bounded by the cache budget, with statistics pushdown
// deciding which units are touched at all and the cache deciding which of
// the touched ones stay decoded.
//
// One ID space: a unit decodes straight into a table of triples in the
// view's global ID space (unittable.go). The terms its triples use are
// interned once into the view's shared dictionary (rdf.SharedDict,
// append-only), and the segment's local-ID columns are remapped, sorted and
// deduplicated into SPO, POS and OSP permutations. Scans emit global IDs,
// query constants resolve to global IDs, and joins across units just work —
// the executor never learns the store is not one graph. Because interning
// identical bytes against an append-only dictionary is deterministic, an
// evicted unit that reloads resumes serving exactly the same rows. Lineage
// runs in the same space: its BFS is a sequence of batched probes
// (ReduceLineagePruned).

// ErrStaleView is the classification for a lazy read that found the store
// layout changed under an open view — a Compact rewrote a canonical file, a
// PackSegments replaced the packs, or a file vanished. A view that observes
// it is permanently stale: reopen the store with OpenLazy for the new
// layout. Reads that race such maintenance either see the old consistent
// layout (served from cache and digest-verified re-reads) or fail with an
// error matching this sentinel — never a partial mixture of generations.
var ErrStaleView = errors.New("core: store layout changed under lazy view")

// lazyUnit is one decodable unit of the view: its open-time identity
// (scanUnit metadata plus the pinned content key) and the per-unit memo
// state that must survive eviction so morsel offsets stay stable.
type lazyUnit struct {
	u         scanUnit // data dropped after open; stats retained for pruning
	key       unitKey
	packSize  int64              // container size recorded at open (pack members only)
	packStats *segcodec.SegStats // pack-level stats for whole-pack pruning (nil for loose)

	// terms is the unit's exact term set: the sorted distinct global IDs its
	// triples use, recorded at the first decode. Like scanLens it outlives
	// eviction (re-decodes are deterministic, so it never changes). A unit
	// whose set lacks a bound pattern ID provably holds no match, so probes
	// skip it without decoding it and without the Bloom filter's false
	// positives. nil until the first decode.
	terms atomic.Pointer[[]rdf.ID]

	mu sync.Mutex
	// scanLens memoizes global-pattern -> unit morsel-domain size for the
	// ScanLen/ScanRange pair. It lives on the unit, not the cached decode,
	// so a repeated lead pattern sizes its morsel domain without decoding.
	// Only ScanLen/ScanRange fill it (probes go through matchBatch), and it
	// holds at most scanLenMemoCap entries: a dropped entry recomputes to the
	// same value, because computeUnitScanLen is a pure function of the
	// unit's immutable contents and statistics.
	scanLens map[[3]rdf.ID]int
	decBytes int64 // decoded-footprint estimate, recorded on first decode
}

// scanLenMemoCap bounds each unit's scanLens memo. A query's morsel
// partitioning needs one entry per lead pattern, so a small cap keeps the
// hot patterns while the view's lifetime memory stays independent of how
// many distinct queries it serves.
const scanLenMemoCap = 64

// mayMatch is the decode-free admission test of one pattern (rdf.NoID
// wildcards) against a unit: false proves the unit holds no match. It uses
// the exact term set once the unit has been decoded and the segment
// statistics always, so its answer for a given pattern only ever narrows
// toward the truth and computeUnitScanLen stays a pure function of the unit.
func (ls *LazySource) mayMatch(lu *lazyUnit, s, p, o rdf.ID) bool {
	if tp := lu.terms.Load(); tp != nil && !(hasID(*tp, s) && hasID(*tp, p) && hasID(*tp, o)) {
		return false
	}
	return lu.u.stats == nil || lu.u.stats.CanMatch(ls.termPtr(s), ls.termPtr(p), ls.termPtr(o))
}

// hasID reports whether a sorted term set holds id; the wildcard always
// matches.
func hasID(set []rdf.ID, id rdf.ID) bool {
	if id == rdf.NoID {
		return true
	}
	_, ok := slices.BinarySearch(set, id)
	return ok
}

// LazyView is the out-of-core read handle returned by Store.OpenLazy: the
// store's unit layout pinned at open time, a shared interning dictionary,
// and the bounded decoded-unit cache. Views are safe for concurrent use; a
// staleness or corruption error observed by any read sticks (Err) and fails
// the queries that raced it.
type LazyView struct {
	store *Store
	cfg   CacheConfig
	dict  *rdf.SharedDict
	cache *segCache
	units []*lazyUnit
	base  ScanStats // file/pack listing counts from open

	errMu sync.Mutex
	err   error
}

// OpenLazy pins the store's current layout into a LazyView without decoding
// anything. Loose files are read once to record their content digest (their
// bytes are then dropped); packs contribute only their headers, fetched via
// range reads on capable backends. The returned view serves queries through
// Source and lineage through ReduceLineagePruned with at most cfg.MaxBytes
// of decoded units resident.
func (s *Store) OpenLazy(cfg CacheConfig) (*LazyView, error) {
	var st ScanStats
	units, err := s.scanUnits(nil, &st)
	if err != nil {
		return nil, err
	}
	v := &LazyView{
		store: s,
		cfg:   cfg,
		dict:  rdf.NewSharedDict(),
		cache: newSegCache(cfg.MaxBytes),
		base:  st,
	}
	type packMeta struct {
		size  int64
		stats *segcodec.SegStats
	}
	packs := make(map[string]packMeta)
	for i := range units {
		u := units[i]
		lu := &lazyUnit{u: u}
		if u.member == "" {
			lu.key = unitKey{path: u.path, size: u.size, digest: fileDigest(u.data)}
		} else {
			pm, ok := packs[u.path]
			if !ok {
				// readPackHeader verifies the file's size against the header's
				// WantSize, so this doubles as the open-time size recording.
				h, _, err := s.readPackHeader(u.path)
				if err != nil {
					return nil, err
				}
				pm = packMeta{size: h.WantSize}
				if h.HasStats {
					hs := h.Stats
					pm.stats = &hs
				}
				packs[u.path] = pm
			}
			lu.packSize = pm.size
			lu.packStats = pm.stats
			lu.key = memberKey(u.path, u.member, u.off, u.size, pm.size)
		}
		lu.u.data = nil // the cache re-fetches on demand; the view pins no bytes
		v.units = append(v.units, lu)
	}
	return v, nil
}

// memberKey derives a pack member's cache key. Packs are written once and
// never rewritten in place, so (path, container size, member extent) pins
// the member; a pack replaced by a different-size file fails the open-time
// size check on fetch, and a same-size replacement is caught by the
// member's own CRC framing at decode (see DESIGN.md for the residual
// name-reuse hazard).
func memberKey(path, member string, off, size, packSize int64) unitKey {
	h := sha256.New()
	h.Write([]byte("pack\x00"))
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write([]byte(member))
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(off))
	binary.LittleEndian.PutUint64(buf[8:], uint64(size))
	binary.LittleEndian.PutUint64(buf[16:], uint64(packSize))
	h.Write(buf[:])
	k := unitKey{path: path, member: member, off: off, size: size}
	h.Sum(k.digest[:0])
	return k
}

// Err returns the first staleness/corruption error any read of the view
// observed, or nil. Source scans cannot return errors through the
// sparql.Source surface, so wrappers must check Err after evaluating and
// discard results when it is set.
func (v *LazyView) Err() error {
	v.errMu.Lock()
	defer v.errMu.Unlock()
	return v.err
}

func (v *LazyView) fail(err error) {
	v.errMu.Lock()
	if v.err == nil {
		v.err = err
	}
	v.errMu.Unlock()
}

// Stats returns the view's cache counters.
func (v *LazyView) Stats() CacheStats { return v.cache.stats() }

// loadUnit returns lu decoded, serving from the cache when resident.
func (v *LazyView) loadUnit(lu *lazyUnit) (*decodedUnit, error) {
	return v.cache.get(lu.key, func() (*decodedUnit, error) {
		data, err := v.fetchVerified(lu)
		if err != nil {
			return nil, err
		}
		du, err := decodeUnitTable(data, v.dict)
		if err != nil {
			return nil, lu.u.decodeErr(err)
		}
		if lu.terms.Load() == nil {
			terms := slices.Clone(du.terms)
			lu.terms.Store(&terms)
		}
		lu.mu.Lock()
		if lu.decBytes == 0 {
			lu.decBytes = du.bytes
		}
		lu.mu.Unlock()
		return du, nil
	})
}

// fetchVerified re-reads the unit's bytes and proves they are the bytes the
// view was opened over: loose files must digest-match (Compact rewrites
// canonicals in place), pack containers must still have their open-time
// size (packs are write-once; a different size means replacement). A
// mismatch or a vanished file classifies as ErrStaleView.
func (v *LazyView) fetchVerified(lu *lazyUnit) ([]byte, error) {
	if lu.u.member == "" {
		data, err := v.store.backend.ReadFile(lu.u.path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("core: %s vanished under lazy view: %w (%v)", lu.u.path, ErrStaleView, err)
			}
			return nil, err
		}
		if fileDigest(data) != lu.key.digest {
			return nil, fmt.Errorf("core: %s rewritten under lazy view: %w", lu.u.path, ErrStaleView)
		}
		return data, nil
	}
	size, err := v.store.backend.Stat(lu.u.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("core: pack %s vanished under lazy view: %w (%v)", lu.u.path, ErrStaleView, err)
		}
		return nil, err
	}
	if size != lu.packSize {
		return nil, fmt.Errorf("core: pack %s is %d bytes, was %d at open: %w", lu.u.path, size, lu.packSize, ErrStaleView)
	}
	data, err := lu.u.fetch(v.store)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("core: pack %s vanished under lazy view: %w (%v)", lu.u.path, ErrStaleView, err)
		}
		return nil, err
	}
	return data, nil
}

// LazySource federates the view's per-unit tables behind the
// sparql.Source / sparql.ScanSource surface for one query: the admitted
// unit list is fixed at construction by the same statistics predicate
// MergePruned uses, so a lazy query touches exactly the units the eager
// pruned merge would decode.
//
// The morsel domain of a pattern is the concatenation of the admitted
// units' exact match ranges, in unit order. Each domain item is owned by the
// first admitted unit containing its triple: later units suppress
// duplicates (an item whose triple an earlier unit also holds emits
// nothing), which makes the federation's emitted triple set exactly the
// eager merged graph's — graph union deduplicates — while every ScanRange
// partition of the domain remains exact and deterministic.
type LazySource struct {
	view         *LazyView
	units        []*lazyUnit
	packsSkipped int // packs dropped whole at their header stats

	decMu   sync.Mutex
	decoded map[*lazyUnit]bool // units this source decoded (ScanStats)
}

// Source returns a query source over the view admitting exactly the units
// whose statistics the pruner cannot rule out (nil admits everything) — the
// same two-stage predicate MergePruned applies: a pack whose header stats
// exclude every pattern drops all its members (stats-less ones included),
// then surviving units are filtered on their own stats.
func (v *LazyView) Source(pr *SegmentPruner) *LazySource {
	ls := &LazySource{view: v, decoded: make(map[*lazyUnit]bool)}
	prunedPacks := make(map[string]bool)
	for _, lu := range v.units {
		if lu.packStats != nil && !pr.wantStats(lu.packStats) {
			prunedPacks[lu.u.path] = true
			continue
		}
		if lu.u.stats != nil && !pr.wantStats(lu.u.stats) {
			continue
		}
		ls.units = append(ls.units, lu)
	}
	ls.packsSkipped = len(prunedPacks)
	return ls
}

// Err returns the view's sticky error (see LazyView.Err).
func (ls *LazySource) Err() error { return ls.view.Err() }

// Admitted reports how many of the view's units the pruner admitted into
// this source — the units a query can touch at all (tooling/plan output).
func (ls *LazySource) Admitted() int { return len(ls.units) }

// load decodes lu through the view's cache, tracking it for scan stats.
func (ls *LazySource) load(lu *lazyUnit) (*decodedUnit, error) {
	du, err := ls.view.loadUnit(lu)
	if err != nil {
		return nil, err
	}
	ls.decMu.Lock()
	ls.decoded[lu] = true
	ls.decMu.Unlock()
	return du, nil
}

// termPtr rehydrates a bound pattern ID for the stats matchers; NoID is nil
// (wildcard).
func (ls *LazySource) termPtr(id rdf.ID) *rdf.Term {
	if id == rdf.NoID {
		return nil
	}
	t := ls.view.dict.TermAt(id)
	return &t
}

// unitScanLen returns lu's morsel-domain size for the pattern through the
// unit's bounded memo. Units whose term set or statistics rule the pattern
// out answer 0 without decoding — the per-unit half of statistics pushdown.
func (ls *LazySource) unitScanLen(lu *lazyUnit, s, p, o rdf.ID) int {
	key := [3]rdf.ID{s, p, o}
	lu.mu.Lock()
	if n, ok := lu.scanLens[key]; ok {
		lu.mu.Unlock()
		return n
	}
	lu.mu.Unlock()

	n, err := ls.computeUnitScanLen(lu, s, p, o)
	if err != nil {
		ls.view.fail(err)
		return 0
	}
	lu.mu.Lock()
	if lu.scanLens == nil {
		lu.scanLens = make(map[[3]rdf.ID]int)
	}
	if prev, ok := lu.scanLens[key]; ok {
		n = prev // first memoized value wins: the domain must never move
	} else {
		if len(lu.scanLens) >= scanLenMemoCap {
			for k := range lu.scanLens { // drop an arbitrary entry
				delete(lu.scanLens, k)
				break
			}
		}
		lu.scanLens[key] = n
	}
	lu.mu.Unlock()
	return n
}

func (ls *LazySource) computeUnitScanLen(lu *lazyUnit, s, p, o rdf.ID) (int, error) {
	if !ls.mayMatch(lu, s, p, o) {
		return 0, nil
	}
	du, err := ls.load(lu)
	if err != nil {
		return 0, err
	}
	return du.scanLen(s, p, o), nil
}

// ownedByEarlier reports whether an admitted unit before index k also holds
// the triple — in which case unit k's domain item is a duplicate and emits
// nothing. The check is deterministic (it depends only on the fixed unit
// list and their immutable contents), which keeps the ScanRange
// concatenation contract intact under any morsel partitioning.
func (ls *LazySource) ownedByEarlier(k int, gs, gp, go_ rdf.ID) bool {
	for _, uj := range ls.units[:k] {
		if !ls.mayMatch(uj, gs, gp, go_) {
			continue
		}
		du, err := ls.load(uj)
		if err != nil {
			ls.view.fail(err)
			return true // results are discarded once the view is failed
		}
		if du.scanLen(gs, gp, go_) > 0 {
			return true
		}
	}
	return false
}

// ---- sparql.Source / sparql.ScanSource (structural) ----

// TermID interns t into the view's shared dictionary. Interning always
// succeeds: a term present in no unit simply appears in no unit's table,
// so its patterns scan empty. (Reporting ok=false would require
// proving absence from every unit, which statistics cannot do for all term
// positions.)
func (ls *LazySource) TermID(t rdf.Term) (rdf.ID, bool) {
	return ls.view.dict.Intern(t), true
}

// TermOf rehydrates a global dictionary ID.
func (ls *LazySource) TermOf(id rdf.ID) rdf.Term { return ls.view.dict.TermAt(id) }

// ScanLen returns the federated morsel-domain size: the sum of the admitted
// units' exact match counts for the pattern.
func (ls *LazySource) ScanLen(s, p, o rdf.ID) int {
	n := 0
	for _, lu := range ls.units {
		n += ls.unitScanLen(lu, s, p, o)
	}
	return n
}

// ScanRange enumerates [lo, hi) of the federated domain: unit sub-ranges in
// unit order, duplicate items suppressed by ownership. Concatenating
// adjacent ranges reproduces the full scan exactly.
func (ls *LazySource) ScanRange(s, p, o rdf.ID, lo, hi int, fn func(s, p, o rdf.ID) bool) bool {
	if ls.view.Err() != nil {
		return true
	}
	pos := 0
	for k, lu := range ls.units {
		if pos >= hi {
			break
		}
		n := ls.unitScanLen(lu, s, p, o)
		if n == 0 {
			continue
		}
		ulo, uhi := lo-pos, hi-pos
		if ulo < 0 {
			ulo = 0
		}
		if uhi > n {
			uhi = n
		}
		if ulo < uhi {
			du, err := ls.load(lu)
			if err != nil {
				ls.view.fail(err)
				return true
			}
			unitIdx := k
			cont := du.scanRange(s, p, o, ulo, uhi, func(gs, gp, gob rdf.ID) bool {
				if ls.ownedByEarlier(unitIdx, gs, gp, gob) {
					return true
				}
				return fn(gs, gp, gob)
			})
			if !cont {
				return false
			}
		}
		pos += n
	}
	return true
}

// ForEachMatchIDs streams every distinct matching triple of the federation
// in global ID space: a one-pattern batch.
func (ls *LazySource) ForEachMatchIDs(s, p, o rdf.ID, fn func(s, p, o rdf.ID) bool) {
	ls.matchBatch([][3]rdf.ID{{s, p, o}}, func(_ int, s, p, o rdf.ID) bool { return fn(s, p, o) })
}

// MatchBatch streams every match of each pattern pats[i] (rdf.NoID
// wildcards) to fn(i, s, p, o), visiting each admitted unit at most once for
// the whole batch — the sparql.BatchSource extension the executor uses for
// joins, so a batch of probes costs one decode per unit instead of one per
// row and unit. Per pattern the output is exactly ForEachMatchIDs': unit
// order, then the unit table's order, cross-unit duplicates dropped.
func (ls *LazySource) MatchBatch(pats [][3]rdf.ID, fn func(i int, s, p, o rdf.ID)) {
	ls.matchBatch(pats, func(i int, s, p, o rdf.ID) bool {
		fn(i, s, p, o)
		return true
	})
}

// batchHit is one triple a unit emitted for a distinct pattern of a batch.
type batchHit struct {
	pat     int32
	s, p, o rdf.ID
}

// batchVisit is one unit a batch reads, with the distinct patterns it may
// match and its residency, sampled once.
type batchVisit struct {
	k        int
	pats     []int32
	resident bool
}

// matchBatch implements MatchBatch and ForEachMatchIDs; fn returning false
// stops the replay.
//
// Identical patterns are probed once. Each unit that may match some pattern
// (mayMatch) is loaded once and scanned for all of them, resident units
// first, so a batch never evicts a unit it is about to read; the hits are
// buffered per unit and replayed in unit order. A triple from unit k is
// dropped when an earlier unit emitted it for the same pattern. That is the
// ownedByEarlier rule: an earlier unit holding the triple also matches the
// pattern, so mayMatch admits it and this batch scans it. Residency is
// sampled once per unit and only orders the visits — the set of units
// visited never depends on it, so a concurrent eviction can neither skip a
// unit nor repeat one.
func (ls *LazySource) matchBatch(pats [][3]rdf.ID, fn func(i int, s, p, o rdf.ID) bool) {
	if len(pats) == 0 || ls.view.Err() != nil {
		return
	}
	// uniq holds the distinct patterns; first/next chain the batch indexes
	// sharing each one in ascending order.
	var uniq [][3]rdf.ID
	var first, last []int
	next := make([]int, len(pats))
	slot := make(map[[3]rdf.ID]int32, len(pats))
	for i, pat := range pats {
		next[i] = -1
		if u, ok := slot[pat]; ok {
			next[last[u]] = i
			last[u] = i
			continue
		}
		slot[pat] = int32(len(uniq))
		uniq = append(uniq, pat)
		first = append(first, i)
		last = append(last, i)
	}

	var visits []batchVisit
	for k, lu := range ls.units {
		var cand []int32
		for u, pat := range uniq {
			if ls.mayMatch(lu, pat[0], pat[1], pat[2]) {
				cand = append(cand, int32(u))
			}
		}
		if len(cand) > 0 {
			visits = append(visits, batchVisit{k: k, pats: cand})
		}
	}
	if len(visits) > 1 {
		for i := range visits {
			visits[i].resident = ls.view.cache.isResident(ls.units[visits[i].k].key)
		}
		sort.SliceStable(visits, func(a, b int) bool { return visits[a].resident && !visits[b].resident })
	}

	hits := make([][]batchHit, len(ls.units))
	spread := make([]int32, len(uniq)) // units that emitted hits, per pattern
	for _, vi := range visits {
		du, err := ls.load(ls.units[vi.k])
		if err != nil {
			ls.view.fail(err)
			return
		}
		var hs []batchHit
		for _, u := range vi.pats {
			pat := uniq[u]
			before := len(hs)
			du.forEach(pat[0], pat[1], pat[2], func(s, p, o rdf.ID) bool {
				hs = append(hs, batchHit{pat: u, s: s, p: p, o: o})
				return true
			})
			if len(hs) > before {
				spread[u]++
			}
		}
		hits[vi.k] = hs
	}

	var seen map[batchHit]struct{}
	for _, hs := range hits {
		for _, h := range hs {
			if spread[h.pat] > 1 {
				if seen == nil {
					seen = make(map[batchHit]struct{})
				}
				if _, dup := seen[h]; dup {
					continue
				}
				seen[h] = struct{}{}
			}
			for i := first[h.pat]; i >= 0; i = next[i] {
				if !fn(i, h.s, h.p, h.o) {
					return
				}
			}
		}
	}
}

// CountMatchIDs is the planner's cardinality oracle. For a lazy source it
// is a decode-free estimate from unit statistics (duplicates across units
// over-count): planning must not page units in, and the plan's correctness
// never depends on estimate precision — only join order does. Execution
// (ScanLen/ScanRange/ForEachMatchIDs) stays exact.
func (ls *LazySource) CountMatchIDs(s, p, o rdf.ID) int {
	sp, pp, op := ls.termPtr(s), ls.termPtr(p), ls.termPtr(o)
	n := 0
	for _, lu := range ls.units {
		n += lu.estimateTriples(sp, pp, op)
	}
	return n
}

// estimateTriples is the unit's decode-free triple estimate for a pattern.
func (lu *lazyUnit) estimateTriples(s, p, o *rdf.Term) int {
	if lu.u.stats != nil {
		if !lu.u.stats.CanMatch(s, p, o) {
			return 0
		}
		return int(lu.u.stats.Triples)
	}
	return int(lu.u.size/32) + 1 // stats-less (legacy/text) unit: size heuristic
}

// PredStats estimates a predicate's cardinalities from unit statistics.
func (ls *LazySource) PredStats(p rdf.ID) (triples, subjects, objects int) {
	t := ls.CountMatchIDs(rdf.NoID, p, rdf.NoID)
	return t, t, t
}

// IndexStats estimates the federation's distinct term counts from unit
// statistics (planner divisors only).
func (ls *LazySource) IndexStats() (subjects, predicates, objects int) {
	n := 0
	for _, lu := range ls.units {
		if lu.u.stats != nil {
			n += int(lu.u.stats.Terms)
		} else {
			n += int(lu.u.size/32) + 1
		}
	}
	if n == 0 {
		n = 1
	}
	return n, n, n
}

// Len estimates the federation's triple count (planner input only).
func (ls *LazySource) Len() int {
	return ls.CountMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID)
}

// Stats reports what this source's scans touched, in MergePruned's terms —
// Units counts every unit of the view, Decoded the ones this source paged
// in — with the view-wide cache counters folded in.
func (ls *LazySource) Stats() *ScanStats {
	st := ls.view.newScanStats()
	ls.decMu.Lock()
	for lu := range ls.decoded {
		st.Decoded++
		st.level(lu.u.level).Decoded++
	}
	ls.decMu.Unlock()
	st.PacksSkipped = ls.packsSkipped
	st.Skipped = st.Units - st.Decoded
	ls.view.foldCacheStats(st)
	return st
}

// newScanStats seeds a ScanStats with the view's open-time layout counts.
func (v *LazyView) newScanStats() *ScanStats {
	st := &ScanStats{Files: v.base.Files, Packs: v.base.Packs}
	for _, lu := range v.units {
		st.Units++
		st.level(lu.u.level).Units++
	}
	return st
}

// foldCacheStats copies the view's cache counters into st.
func (v *LazyView) foldCacheStats(st *ScanStats) {
	cs := v.cache.stats()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEvictions = cs.Evictions
	st.CacheResidentBytes = cs.ResidentBytes
	st.CachePeakBytes = cs.PeakBytes
	st.CacheBudgetBytes = cs.BudgetBytes
}

// ---- whole-graph consumers over the cache ----

// hydrateUnits decodes units through the cache and unions their triples
// into dst with a worker pool (graph union deduplicates, so no ownership
// filtering is needed on this path).
func (v *LazyView) hydrateUnits(units []*lazyUnit, dst *rdf.Graph, workers int) error {
	hydrate := func(lu *lazyUnit) error {
		du, err := v.loadUnit(lu)
		if err != nil {
			return err
		}
		dst.AddBatch(v.triples(du.spo))
		return nil
	}
	if workers <= 1 || len(units) < 2 {
		for _, lu := range units {
			if err := hydrate(lu); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	jobs := make(chan *lazyUnit)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lu := range jobs {
				errMu.Lock()
				failed := firstErr != nil
				errMu.Unlock()
				if failed {
					continue
				}
				if err := hydrate(lu); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, lu := range units {
		jobs <- lu
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// MaterializeGraph unions every unit of the view into one graph through the
// cache — the lazy counterpart of Merge for consumers that need the whole
// graph (provio-stats). Peak decoded-cache residency stays within the
// budget; the returned graph itself is of course O(store).
func (v *LazyView) MaterializeGraph(workers int) (*rdf.Graph, *ScanStats, error) {
	st := v.newScanStats()
	g := rdf.NewGraph()
	if err := v.hydrateUnits(v.units, g, workers); err != nil {
		return nil, nil, err
	}
	st.Decoded = len(v.units)
	for _, lu := range v.units {
		st.level(lu.u.level).Decoded++
	}
	v.foldCacheStats(st)
	return g, st, nil
}

// triples rehydrates (s, p, o) global-ID rows into term triples.
func (v *LazyView) triples(rows [][3]rdf.ID) []rdf.Triple {
	ts := make([]rdf.Triple, len(rows))
	for i, t := range rows {
		ts[i] = rdf.Triple{S: v.dict.TermAt(t[0]), P: v.dict.TermAt(t[1]), O: v.dict.TermAt(t[2])}
	}
	return ts
}

// ReduceLineagePruned answers the lineage question of
// Store.ReduceLineagePruned (identical results) through the view's cache,
// in global ID space: the BFS runs level by level, and each level is one
// batch of probes (n, ?, ?) and (?, ?, n) per frontier node, so a unit is
// loaded at most once per level and only when its term set and statistics
// admit a frontier node. A level-synchronous BFS assigns the same depths as
// the eager FIFO, so the kept set is identical. One final batch of
// (k, ?, ?) over the kept nodes yields the output: annotation triples of
// kept nodes, and relation edges whose both ends are kept. Roots and
// relation predicates are interned, never looked up — the dictionary holds
// only terms of units decoded so far. The batches run serially; workers is
// accepted for parity with the eager call.
func (v *LazyView) ReduceLineagePruned(roots []rdf.Term, maxHops, workers int) (*rdf.Graph, *ScanStats, error) {
	ls := v.Source(nil)
	relations := make(map[rdf.ID]bool, len(lineageRelations))
	for _, rel := range lineageRelations {
		relations[v.dict.Intern(rel)] = true
	}
	keep := map[rdf.ID]bool{}
	var kept []rdf.ID
	for _, r := range roots {
		if r.IsZero() {
			continue
		}
		if id := v.dict.Intern(r); !keep[id] {
			keep[id] = true
			kept = append(kept, id)
		}
	}
	frontier := kept
	for depth := 0; len(frontier) > 0 && (maxHops <= 0 || depth < maxHops); depth++ {
		pats := make([][3]rdf.ID, 0, 2*len(frontier))
		for _, n := range frontier {
			pats = append(pats, [3]rdf.ID{n, rdf.NoID, rdf.NoID}, [3]rdf.ID{rdf.NoID, rdf.NoID, n})
		}
		next := len(kept)
		ls.matchBatch(pats, func(i int, s, p, o rdf.ID) bool {
			if !relations[p] {
				return true
			}
			n := o
			if i%2 == 1 {
				n = s
			}
			if !keep[n] {
				if t := v.dict.TermAt(n); t.IsIRI() || t.IsBlank() {
					keep[n] = true
					kept = append(kept, n)
				}
			}
			return true
		})
		frontier = kept[next:]
	}

	pats := make([][3]rdf.ID, len(kept))
	for i, k := range kept {
		pats[i] = [3]rdf.ID{k, rdf.NoID, rdf.NoID}
	}
	var rows [][3]rdf.ID
	ls.matchBatch(pats, func(_ int, s, p, o rdf.ID) bool {
		if !relations[p] || keep[o] {
			rows = append(rows, [3]rdf.ID{s, p, o})
		}
		return true
	})
	if err := v.Err(); err != nil {
		return nil, nil, err
	}
	out := rdf.NewGraph()
	out.AddBatch(v.triples(rows))
	return out, ls.Stats(), nil
}

// LevelResidency is one level's slice of the view's sizing report: what the
// level holds on disk, how much of it has a known decoded footprint, and
// how much is resident in the cache right now. provio-stats renders it so
// users can pick a -cache-bytes budget from real decoded sizes.
type LevelResidency struct {
	Level         int   `json:"level"`
	Units         int   `json:"units"`
	ResidentUnits int   `json:"resident_units"`
	DiskBytes     int64 `json:"disk_bytes"`
	DecodedBytes  int64 `json:"decoded_bytes"` // sum over units decoded at least once
	ResidentBytes int64 `json:"resident_bytes"`
}

// LevelResidency reports the per-level disk/decoded/resident byte
// breakdown of the view.
func (v *LazyView) LevelResidency() []LevelResidency {
	byLevel := map[int]*LevelResidency{}
	at := func(l int) *LevelResidency {
		lr := byLevel[l]
		if lr == nil {
			lr = &LevelResidency{Level: l}
			byLevel[l] = lr
		}
		return lr
	}
	byKey := make(map[unitKey]*lazyUnit, len(v.units))
	for _, lu := range v.units {
		lr := at(lu.u.level)
		lr.Units++
		lr.DiskBytes += lu.u.size
		lu.mu.Lock()
		lr.DecodedBytes += lu.decBytes
		lu.mu.Unlock()
		byKey[lu.key] = lu
	}
	v.cache.forEachResident(func(k unitKey, bytes int64) {
		if lu := byKey[k]; lu != nil {
			lr := at(lu.u.level)
			lr.ResidentUnits++
			lr.ResidentBytes += bytes
		}
	})
	out := make([]LevelResidency, 0, len(byLevel))
	for _, lr := range byLevel {
		out = append(out, *lr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}
