package sparql

import (
	"encoding/json"
	"io"
	"slices"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// JSON serialization of query solutions in the W3C "SPARQL 1.1 Query
// Results JSON Format" (application/sparql-results+json), so the user
// engine's answers can feed standard SPARQL tooling.

// jsonResults mirrors the W3C document structure.
type jsonResults struct {
	Head    jsonHead     `json:"head"`
	Results jsonBindings `json:"results"`
}

type jsonHead struct {
	Vars []string `json:"vars"`
}

type jsonBindings struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type     string `json:"type"` // "uri", "literal", "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

func jsonToTerm(t jsonTerm) rdf.Term {
	switch t.Type {
	case "uri":
		return rdf.IRI(t.Value)
	case "bnode":
		return rdf.Blank(t.Value)
	default:
		if t.Lang != "" {
			return rdf.LangLiteral(t.Value, t.Lang)
		}
		return rdf.TypedLiteral(t.Value, t.Datatype)
	}
}

// jsonChunk is the size at which WriteJSON hands its buffer to the writer.
const jsonChunk = 32 << 10

// WriteJSON serializes the result in the W3C SPARQL results JSON format.
// The bytes are exactly what encoding/json writes for the document with a
// two-space indent: binding keys in byte order with duplicate Vars
// collapsed, empty fields omitted, strings HTML-escaped. The document is
// appended into one reused buffer and written in chunks of about jsonChunk
// bytes; the first Write error is returned.
func (r *Result) WriteJSON(w io.Writer) error {
	// Binding keys, pre-rendered as `"name": ` in the order encoding/json
	// sorts map keys.
	names := slices.Clone(r.Vars)
	slices.Sort(names)
	names = slices.Compact(names)
	keys := make([][]byte, len(names))
	for i, v := range names {
		keys[i] = append(appendJSONString(nil, v), ':', ' ')
	}

	var err error
	buf := make([]byte, 0, 4<<10)
	flush := func() {
		if err == nil {
			_, err = w.Write(buf)
		}
		buf = buf[:0]
	}
	buf = append(buf, "{\n  \"head\": {\n    \"vars\": ["...)
	for i, v := range r.Vars {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(append(buf, "\n      "...), v)
	}
	if len(r.Vars) > 0 {
		buf = append(buf, "\n    "...)
	}
	buf = append(buf, "]\n  },\n  \"results\": {\n    \"bindings\": ["...)
	for i, row := range r.Rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n      {"...)
		bound := 0
		for k, v := range names {
			t, ok := row[v]
			if !ok {
				continue
			}
			if bound > 0 {
				buf = append(buf, ',')
			}
			bound++
			buf = appendJSONTerm(append(append(buf, "\n        "...), keys[k]...), t)
		}
		if bound > 0 {
			buf = append(buf, "\n      "...)
		}
		buf = append(buf, '}')
		if len(buf) >= jsonChunk {
			if flush(); err != nil {
				return err
			}
		}
	}
	if len(r.Rows) > 0 {
		buf = append(buf, "\n    "...)
	}
	buf = append(buf, "]\n  }\n}\n"...)
	flush()
	return err
}

// appendJSONTerm appends one binding value: an object with type and value,
// plus datatype and xml:lang on literals when set.
func appendJSONTerm(b []byte, t rdf.Term) []byte {
	const field = ",\n          \""
	typ := "literal"
	switch t.Kind {
	case rdf.IRITerm:
		typ = "uri"
	case rdf.BlankTerm:
		typ = "bnode"
	}
	b = append(b, "{\n          \"type\": \""...)
	b = append(append(b, typ...), '"')
	b = appendJSONString(append(b, field+"value\": "...), t.Value)
	if typ == "literal" {
		if t.Datatype != "" {
			b = appendJSONString(append(b, field+"datatype\": "...), t.Datatype)
		}
		if t.Lang != "" {
			b = appendJSONString(append(b, field+"xml:lang\": "...), t.Lang)
		}
	}
	return append(b, "\n        }"...)
}

// appendJSONString appends s as a JSON string. A string with no byte that
// needs escaping is copied as is; any other goes through encoding/json,
// whose escaping (HTML-safe, U+2028/U+2029, invalid UTF-8 as U+FFFD) is the
// format contract.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ParseResultsJSON parses a W3C SPARQL results JSON document back into a
// Result, for round-tripping with external endpoints.
func ParseResultsJSON(r io.Reader) (*Result, error) {
	var doc jsonResults
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	out := &Result{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make(Binding, len(b))
		for v, t := range b {
			row[v] = jsonToTerm(t)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
