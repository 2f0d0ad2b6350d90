package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// This file is the statistics-pushdown read path of the leveled store
// (DESIGN.md "Leveled segments & pushdown"): reads that know what they are
// looking for consult each segment's embedded stats frame — and each pack's
// header — to skip whole segments whose zone maps, predicate lists, and
// Bloom filters prove the answer cannot be there. Pruning is strictly
// conservative: a unit without stats (legacy .pbs, text segments) always
// matches, a Bloom filter has false positives only, and the codec layer
// rejects any stats frame that does not byte-match its segment's contents —
// so a pruned read returns exactly what the exhaustive read would.

// PrunePattern is one triple pattern of a pruning hint; nil positions are
// unbound. The zero pattern matches everything.
type PrunePattern struct {
	S, P, O *rdf.Term
}

// SegmentPruner is the pushdown hint a read derives from its query: the
// union of every triple pattern the query could touch. A segment is skipped
// only when NO pattern can match it — triples matching no pattern cannot
// influence the result, so skipping such segments is sound for any query the
// patterns over-approximate. A nil pruner (or one with no patterns) prunes
// nothing.
type SegmentPruner struct {
	Patterns []PrunePattern
}

// wantStats reports whether any pattern could match a unit with these stats.
func (pr *SegmentPruner) wantStats(st *segcodec.SegStats) bool {
	if pr == nil || len(pr.Patterns) == 0 {
		return true
	}
	for _, p := range pr.Patterns {
		if st.CanMatch(p.S, p.P, p.O) {
			return true
		}
	}
	return false
}

// LevelScan is one level's slice of a ScanStats.
type LevelScan struct {
	Units   int `json:"units"`
	Decoded int `json:"decoded"`
}

// ScanStats reports what a pruned read touched: how many decodable units
// (loose files and pack members) the store holds, how many were actually
// decoded, and how the work split across levels (level 0 = loose files,
// level N = members of an L-N pack). provio-query -plan and provio-stats
// render it; the abl-lsm benchmark records it.
type ScanStats struct {
	Files        int                `json:"files"`         // store files listed (a pack counts once)
	Packs        int                `json:"packs"`         // pack containers among Files
	PacksSkipped int                `json:"packs_skipped"` // packs skipped whole at their header
	Units        int                `json:"units"`         // decodable units (loose files + pack members)
	Decoded      int                `json:"decoded"`
	Skipped      int                `json:"skipped"`
	PerLevel     map[int]*LevelScan `json:"per_level,omitempty"`

	// Decoded-unit cache counters, populated only by the out-of-core read
	// path (LazySource.Stats, LazyView reads); zero on eager reads.
	CacheHits          uint64 `json:"cache_hits,omitempty"`
	CacheMisses        uint64 `json:"cache_misses,omitempty"`
	CacheEvictions     uint64 `json:"cache_evictions,omitempty"`
	CacheResidentBytes int64  `json:"cache_resident_bytes,omitempty"`
	CachePeakBytes     int64  `json:"cache_peak_bytes,omitempty"`
	CacheBudgetBytes   int64  `json:"cache_budget_bytes,omitempty"`
}

// CacheHitRatio returns the cache hit fraction, or -1 when no lazy read ran.
func (st *ScanStats) CacheHitRatio() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return -1
	}
	return float64(st.CacheHits) / float64(total)
}

func (st *ScanStats) level(l int) *LevelScan {
	if st.PerLevel == nil {
		st.PerLevel = make(map[int]*LevelScan)
	}
	ls := st.PerLevel[l]
	if ls == nil {
		ls = &LevelScan{}
		st.PerLevel[l] = ls
	}
	return ls
}

// String renders the skip report one line, e.g. "decoded 3/41 units (38
// skipped; 2/5 packs pruned whole) [L0 1/1 L1 2/40]".
func (st *ScanStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decoded %d/%d units (%d skipped", st.Decoded, st.Units, st.Skipped)
	if st.Packs > 0 {
		fmt.Fprintf(&b, "; %d/%d packs pruned whole", st.PacksSkipped, st.Packs)
	}
	b.WriteString(")")
	if len(st.PerLevel) > 0 {
		levels := make([]int, 0, len(st.PerLevel))
		for l := range st.PerLevel {
			levels = append(levels, l)
		}
		sort.Ints(levels)
		b.WriteString(" [")
		for i, l := range levels {
			if i > 0 {
				b.WriteString(" ")
			}
			ls := st.PerLevel[l]
			fmt.Fprintf(&b, "L%d %d/%d", l, ls.Decoded, ls.Units)
		}
		b.WriteString("]")
	}
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(&b, "; cache %d hit / %d miss (%.0f%%), %d evicted, %d bytes resident",
			st.CacheHits, st.CacheMisses, 100*st.CacheHitRatio(), st.CacheEvictions, st.CacheResidentBytes)
		if st.CacheBudgetBytes > 0 {
			fmt.Fprintf(&b, " of %d budget", st.CacheBudgetBytes)
		}
	}
	return b.String()
}

// scanUnit is one decodable unit of the store: a loose provenance file, or
// one member of a pack. Units carry whatever was already read to stat them
// (loose files: the whole file; pack members: nothing until fetched).
type scanUnit struct {
	path   string // backend path of the file holding the unit
	member string // member name inside a pack; "" for a loose file
	off    int64  // member extent (pack members only)
	size   int64
	level  int
	stats  *segcodec.SegStats // nil = no stats, always matches
	data   []byte             // unit bytes when already in hand
}

// rangeReadable returns the backend's partial-read capability, or nil. Only
// the outermost backend is consulted — never unwrapped decorators — so a
// fault-injection or accounting wrapper that lacks the method keeps seeing
// every read as a whole-file ReadFile.
func rangeReadable(b StoreBackend) interface {
	ReadFileRange(path string, off, n int64) ([]byte, error)
} {
	rr, ok := any(b).(interface {
		ReadFileRange(path string, off, n int64) ([]byte, error)
	})
	if !ok {
		return nil
	}
	return rr
}

// readPackHeader fetches and parses a pack's header. With a range-capable
// backend only a prefix of the file is read (retried larger while the
// header is truncated); otherwise the whole file is read and returned so
// member fetches can slice it instead of re-reading.
func (s *Store) readPackHeader(path string) (*segcodec.PackHeader, []byte, error) {
	if rr := rangeReadable(s.backend); rr != nil {
		for n := int64(64 << 10); ; n *= 2 {
			buf, err := rr.ReadFileRange(path, 0, n)
			if err != nil {
				return nil, nil, err
			}
			h, err := segcodec.DecodePackHeader(buf)
			if err == nil {
				// The header parsed from a prefix; check the file is whole.
				size, serr := s.backend.Stat(path)
				if serr != nil {
					return nil, nil, serr
				}
				if size != h.WantSize {
					return nil, nil, fmt.Errorf("core: %s: file is %d bytes, pack header implies %d: %w",
						path, size, h.WantSize, segcodec.ErrTruncated)
				}
				return h, nil, nil
			}
			if errors.Is(err, segcodec.ErrTruncated) && int64(len(buf)) == n {
				continue // header larger than the prefix: read more
			}
			return nil, nil, fmt.Errorf("core: %s: %w", path, err)
		}
	}
	data, err := s.backend.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	h, err := segcodec.DecodePackHeader(data)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", path, err)
	}
	if int64(len(data)) != h.WantSize {
		return nil, nil, fmt.Errorf("core: %s: file is %d bytes, pack header implies %d: %w",
			path, len(data), h.WantSize, segcodec.ErrTruncated)
	}
	return h, data, nil
}

// fetch returns the unit's bytes, range-reading pack members on capable
// backends so untouched members never enter memory.
func (u *scanUnit) fetch(s *Store) ([]byte, error) {
	if u.data != nil {
		return u.data, nil
	}
	if u.member == "" {
		data, err := s.backend.ReadFile(u.path)
		if err != nil && errors.Is(err, fs.ErrNotExist) {
			// The file was listed but is gone by decode time: a concurrent
			// Compact/PackSegments moved the layout under this scan. Classify
			// so racing readers can distinguish maintenance from damage.
			return nil, fmt.Errorf("core: %s vanished during scan: %w (%v)", u.path, ErrStaleView, err)
		}
		return data, err
	}
	if rr := rangeReadable(s.backend); rr != nil {
		data, err := rr.ReadFileRange(u.path, u.off, u.size)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("core: pack %s vanished during scan: %w (%v)", u.path, ErrStaleView, err)
			}
			return nil, err
		}
		if int64(len(data)) != u.size {
			return nil, fmt.Errorf("core: %s!%s: member extent short: %w", u.path, u.member, segcodec.ErrTruncated)
		}
		return data, nil
	}
	data, err := s.backend.ReadFile(u.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("core: pack %s vanished during scan: %w (%v)", u.path, ErrStaleView, err)
		}
		return nil, err
	}
	if int64(len(data)) < u.off+u.size {
		return nil, fmt.Errorf("core: %s!%s: member extent past EOF: %w", u.path, u.member, segcodec.ErrTruncated)
	}
	return data[u.off : u.off+u.size], nil
}

// decodeInto decodes the unit's triples into g.
func (u *scanUnit) decodeInto(s *Store, g *rdf.Graph) error {
	data, err := u.fetch(s)
	if err != nil {
		return err
	}
	return u.decodeErr(segcodec.Detect(data).Decode(bytes.NewReader(data), g))
}

// decodeErr names the unit in a decode failure; nil passes through.
func (u *scanUnit) decodeErr(err error) error {
	if err == nil {
		return nil
	}
	name := u.path
	if u.member != "" {
		name += "!" + u.member
		// Members were decodable when the pack was written, so any decode
		// failure here is pack damage — classify it as such when the
		// codec layer hasn't already (a flipped magic byte, for example,
		// demotes a binary member to a failed text parse).
		if !errors.Is(err, segcodec.ErrCorrupt) && !errors.Is(err, segcodec.ErrTruncated) {
			err = fmt.Errorf("%w: %v", segcodec.ErrCorrupt, err)
		}
	}
	return fmt.Errorf("core: parsing %s: %w", name, err)
}

// scanUnits lists the store's decodable units, expanding packs into member
// units through their headers (lazily: member bytes are not read). Loose
// files are read whole — their stats frame sits in the footer — and the
// bytes are kept on the unit so a later decode does not re-read them.
// Whole-pack pruning happens here: when the pack-level stats already rule
// every pattern out, the pack's members are counted but never listed.
func (s *Store) scanUnits(pr *SegmentPruner, st *ScanStats) ([]scanUnit, error) {
	files, err := s.subgraphFiles()
	if err != nil {
		return nil, err
	}
	var units []scanUnit
	for _, f := range files {
		st.Files++
		if filepath.Ext(f) == segcodec.Pack.Ext() {
			st.Packs++
			h, data, err := s.readPackHeader(f)
			if err != nil {
				return nil, err
			}
			rdfMembers := 0
			for _, m := range h.Members {
				if isCodecFile(m.Name) {
					rdfMembers++
				}
			}
			if h.HasStats && pr != nil && len(pr.Patterns) > 0 && !pr.wantStats(&h.Stats) {
				st.PacksSkipped++
				st.Units += rdfMembers
				st.level(h.Level).Units += rdfMembers
				continue
			}
			for _, m := range h.Members {
				if !isCodecFile(m.Name) {
					continue // opaque member (.sum sidecar)
				}
				u := scanUnit{path: f, member: m.Name, off: m.Off, size: m.Size, level: h.Level}
				if m.HasStats {
					ms := m.Stats
					u.stats = &ms
				}
				if data != nil {
					u.data = data[m.Off : m.Off+m.Size]
				}
				units = append(units, u)
			}
			continue
		}
		data, err := s.backend.ReadFile(f)
		if err != nil {
			return nil, err
		}
		u := scanUnit{path: f, size: int64(len(data)), data: data}
		if fst, ok := segcodec.StatsOf(data); ok {
			u.stats = &fst
		}
		units = append(units, u)
	}
	return units, nil
}

// MergePruned is MergeParallel with statistics pushdown: units whose stats
// prove no pattern of the pruner can match are never decoded (pack members
// on a range-capable backend are never even read). The merged graph is
// exactly the exhaustive merge restricted to triples the pruner's patterns
// could use — for a nil pruner it IS the exhaustive merge, which is how
// Merge and MergeParallel route here (the one pruner-aware listing/merge
// path of the store).
func (s *Store) MergePruned(pr *SegmentPruner, workers int) (*rdf.Graph, *ScanStats, error) {
	st := &ScanStats{}
	units, err := s.scanUnits(pr, st)
	if err != nil {
		return nil, nil, err
	}
	var keep []scanUnit
	for _, u := range units {
		st.Units++
		st.level(u.level).Units++
		if u.stats != nil && !pr.wantStats(u.stats) {
			continue
		}
		keep = append(keep, u)
	}
	g, err := s.decodeUnits(keep, workers)
	if err != nil {
		return nil, nil, err
	}
	st.Decoded = len(keep)
	st.Skipped = st.Units - st.Decoded
	for _, u := range keep {
		st.level(u.level).Decoded++
	}
	return g, st, nil
}

// decodeUnits unions the units' triples into one graph with a worker pool:
// each worker owns a private accumulator (parsing and union parallelize with
// no contention; accumulators arrive GUID-deduplicated at the final
// combine). workers <= 1 decodes sequentially. The result is order-
// independent: graph union is commutative and idempotent.
func (s *Store) decodeUnits(units []scanUnit, workers int) (*rdf.Graph, error) {
	if workers <= 1 || len(units) < 2 {
		merged := rdf.NewGraph()
		for i := range units {
			if err := units[i].decodeInto(s, merged); err != nil {
				return nil, err
			}
		}
		return merged, nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	jobs := make(chan *scanUnit)
	accs := make([]*rdf.Graph, workers)
	var (
		workerWG sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		accs[w] = rdf.NewGraph()
		workerWG.Add(1)
		go func(acc *rdf.Graph) {
			defer workerWG.Done()
			for u := range jobs {
				if failed() {
					continue // drain remaining jobs after an error
				}
				if err := u.decodeInto(s, acc); err != nil {
					fail(err)
				}
			}
		}(accs[w])
	}
	for i := range units {
		jobs <- &units[i]
	}
	close(jobs)
	workerWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	merged := accs[0]
	for _, acc := range accs[1:] {
		merged.Merge(acc)
	}
	return merged, nil
}

// ReduceLineagePruned answers a lineage question without merging the whole
// store: it loads only units that can contain a node already known to be in
// the queried neighborhood, expanding to a fixpoint. Each round probes the
// still-unloaded units with the frontier of kept nodes (Bloom + S/O zone
// maps via CanContainNode) and re-runs the reduction over everything loaded
// so far; when a round loads nothing new, every store unit that could touch
// a kept node has been folded in, so the result equals
// ReduceLineage(Merge(), roots, maxHops) exactly (induction over BFS depth:
// a node kept at depth d is reached through an edge incident to a depth-d-1
// node, and the unit holding that edge cannot be pruned once the d-1 node is
// in the probe set — stats have no false negatives).
func (s *Store) ReduceLineagePruned(roots []rdf.Term, maxHops, workers int) (*rdf.Graph, *ScanStats, error) {
	st := &ScanStats{}
	units, err := s.scanUnits(nil, st)
	if err != nil {
		return nil, nil, err
	}
	for _, u := range units {
		st.Units++
		st.level(u.level).Units++
	}

	loaded := rdf.NewGraph()
	pending := make([]scanUnit, len(units))
	copy(pending, units)
	probes := append([]rdf.Term(nil), roots...)
	var reduced *rdf.Graph
	for {
		var take []scanUnit
		var rest []scanUnit
		for _, u := range pending {
			want := u.stats == nil
			if !want {
				for _, t := range probes {
					if u.stats.CanContainNode(t) {
						want = true
						break
					}
				}
			}
			if want {
				take = append(take, u)
			} else {
				rest = append(rest, u)
			}
		}
		if len(take) == 0 && reduced != nil {
			break
		}
		pending = rest
		if len(take) > 0 {
			g, err := s.decodeUnits(take, workers)
			if err != nil {
				return nil, nil, err
			}
			loaded.Merge(g)
			st.Decoded += len(take)
			for _, u := range take {
				st.level(u.level).Decoded++
			}
		}
		var kept []rdf.Term
		reduced, kept = reduceLineageKept(loaded, roots, maxHops)
		probes = kept
	}
	st.Skipped = st.Units - st.Decoded
	return reduced, st, nil
}
