package rdf

// SharedDict is a standalone interning dictionary with the same striped
// layout and ID semantics as the per-graph term dictionary: dense IDs in
// allocation order, append-only, safe for concurrent use. It gives a
// federation of independently decoded units one global ID space — core's
// out-of-core LazySource interns every unit's terms here at decode time and
// stores the unit's triples as global-ID rows, letting the query executor
// join across units without ever merging them into one graph.
//
// Because the table is append-only, IDs recorded against an earlier state
// stay valid forever: an ID handed out once never changes meaning.
type SharedDict struct {
	d termDict
}

// NewSharedDict returns an empty shared dictionary.
func NewSharedDict() *SharedDict {
	sd := &SharedDict{}
	sd.d.init()
	return sd
}

// Intern returns the global ID for t, adding it if new.
func (sd *SharedDict) Intern(t Term) ID {
	return sd.d.intern(t)
}

// Lookup returns the global ID for t and whether it is interned.
func (sd *SharedDict) Lookup(t Term) (ID, bool) {
	return sd.d.lookup(t)
}

// TermAt returns the term interned under id, or the zero Term if id is out
// of range (including NoID).
func (sd *SharedDict) TermAt(id ID) Term {
	return sd.d.termAt(id)
}

// Count returns the number of interned terms.
func (sd *SharedDict) Count() int {
	return sd.d.count()
}
