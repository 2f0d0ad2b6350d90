package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// tableOf builds a table from global-ID triples, one local ID per position.
func tableOf(triples [][3]rdf.ID) *decodedUnit {
	gids := make([]rdf.ID, 0, 3*len(triples))
	rows := make([][3]uint32, len(triples))
	for i, t := range triples {
		gids = append(gids, t[:]...)
		rows[i] = [3]uint32{uint32(3 * i), uint32(3*i + 1), uint32(3*i + 2)}
	}
	return newDecodedUnit(gids, rows)
}

// TestUnitTableProperty checks the decoded-unit table against a naive
// filter: random tables with duplicate input triples, every one of the 8
// bound/unbound pattern shapes with bound values drawn both from the table
// and from IDs it lacks. scanLen is the exact naive match count, every
// emitted triple matches the pattern and is distinct, and scanRange pieces
// cut at random points concatenate to the forEach output.
func TestUnitTableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		// Few, sparse IDs: many shared terms, and gaps between them.
		span := 1 + rng.Intn(8)
		id := func() rdf.ID { return rdf.ID(1000*rng.Intn(span) + 7) }
		var input [][3]rdf.ID
		for n := rng.Intn(80); len(input) < n; {
			row := [3]rdf.ID{id(), id(), id()}
			input = append(input, row)
			if rng.Intn(3) == 0 {
				input = append(input, row)
			}
		}
		distinct := map[[3]rdf.ID]bool{}
		for _, row := range input {
			distinct[row] = true
		}
		du := tableOf(input)
		if len(du.spo) != len(distinct) || len(du.pos) != len(distinct) || len(du.osp) != len(distinct) {
			t.Fatalf("trial %d: permutations hold %d/%d/%d rows, want %d distinct",
				trial, len(du.spo), len(du.pos), len(du.osp), len(distinct))
		}
		var terms []rdf.ID
		for row := range distinct {
			terms = append(terms, row[:]...)
		}
		slices.Sort(terms)
		if got, want := du.terms, slices.Compact(terms); !slices.Equal(got, want) {
			t.Fatalf("trial %d: term set %v, want %v", trial, got, want)
		}

		for mask := 0; mask < 8; mask++ {
			for draw := 0; draw < 3; draw++ {
				// Bound values come from a table row, or fall in a gap.
				src := [3]rdf.ID{rdf.ID(1000*rng.Intn(span+1) + 3), rdf.ID(8), rdf.ID(1000 * span)}
				if len(input) > 0 && draw < 2 {
					src = input[rng.Intn(len(input))]
				}
				pat := [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID}
				for i := 0; i < 3; i++ {
					if mask&(1<<i) != 0 {
						pat[i] = src[i]
					}
				}
				tag := fmt.Sprintf("trial %d pattern %v", trial, pat)
				want := 0
				for row := range distinct {
					if (pat[0] == rdf.NoID || pat[0] == row[0]) && (pat[1] == rdf.NoID || pat[1] == row[1]) &&
						(pat[2] == rdf.NoID || pat[2] == row[2]) {
						want++
					}
				}
				n := du.scanLen(pat[0], pat[1], pat[2])
				if n != want {
					t.Fatalf("%s: scanLen %d, naive count %d", tag, n, want)
				}
				var all [][3]rdf.ID
				du.forEach(pat[0], pat[1], pat[2], func(s, p, o rdf.ID) bool {
					all = append(all, [3]rdf.ID{s, p, o})
					return true
				})
				seen := map[[3]rdf.ID]bool{}
				for _, row := range all {
					for i := 0; i < 3; i++ {
						if pat[i] != rdf.NoID && row[i] != pat[i] {
							t.Fatalf("%s: emitted %v, which does not match", tag, row)
						}
					}
					if seen[row] || !distinct[row] {
						t.Fatalf("%s: emitted %v twice or from outside the table", tag, row)
					}
					seen[row] = true
				}
				if len(all) != n {
					t.Fatalf("%s: forEach emitted %d, scanLen %d", tag, len(all), n)
				}
				cuts := []int{0}
				for c := rng.Intn(4); c > 0; c-- {
					cuts = append(cuts, rng.Intn(n+1))
				}
				cuts = append(cuts, n)
				slices.Sort(cuts)
				var pieces [][3]rdf.ID
				for i := 1; i < len(cuts); i++ {
					du.scanRange(pat[0], pat[1], pat[2], cuts[i-1], cuts[i], func(s, p, o rdf.ID) bool {
						pieces = append(pieces, [3]rdf.ID{s, p, o})
						return true
					})
				}
				if !slices.Equal(pieces, all) {
					t.Fatalf("%s: pieces cut at %v give %v, forEach %v", tag, cuts, pieces, all)
				}
			}
		}
	}
}
