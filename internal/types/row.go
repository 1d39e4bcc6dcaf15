package types

import (
	"strings"
)

// Field describes one column of a row schema.
type Field struct {
	// Name is the attribute name, unqualified ("salary").
	Name string
	// Collection qualifies the attribute with the collection it came from
	// ("Employee"); empty for derived fields.
	Collection string
	// Type is the declared kind of the field's values.
	Type Kind
}

// QualifiedName renders Collection.Name, or just Name when unqualified.
func (f Field) QualifiedName() string {
	if f.Collection == "" {
		return f.Name
	}
	return f.Collection + "." + f.Name
}

// Schema is an ordered list of fields describing the rows an operator
// produces. Schemas are immutable once built; operators derive new schemas
// rather than mutating existing ones.
type Schema struct {
	fields []Field
}

// NewSchema builds a schema from fields. Later duplicates of the same
// unqualified name shadow earlier ones in unqualified lookup; qualified
// lookup stays unambiguous.
func NewSchema(fields ...Field) *Schema {
	return &Schema{fields: append([]Field(nil), fields...)}
}

// Len reports the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Lookup resolves an attribute reference, qualified or not, case-
// insensitively. It returns the field position and true when found. A
// field matches by its name, or as Collection.Name when it has a
// collection; the last matching field wins. Schemas have at most a few
// dozen fields, so a scan beats building an index per schema: the
// optimizer derives a schema for every candidate join and looks up a
// handful of its columns.
func (s *Schema) Lookup(name string) (int, bool) {
	for i := len(s.fields) - 1; i >= 0; i-- {
		f := &s.fields[i]
		if strings.EqualFold(f.Name, name) {
			return i, true
		}
		if c := len(f.Collection); c > 0 && len(name) == c+1+len(f.Name) && name[c] == '.' &&
			strings.EqualFold(name[:c], f.Collection) && strings.EqualFold(name[c+1:], f.Name) {
			return i, true
		}
	}
	return 0, false
}

// Concat builds the schema of a join: the fields of s followed by those of
// o.
func (s *Schema) Concat(o *Schema) *Schema {
	fields := make([]Field, 0, len(s.fields)+len(o.fields))
	return &Schema{fields: append(append(fields, s.fields...), o.fields...)}
}

// String renders the schema as (a:int, b:string).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.QualifiedName())
		b.WriteByte(':')
		b.WriteString(f.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple of constants, positionally aligned with a Schema.
type Row []Constant

// Concat returns the concatenation of r and o as a new row.
func (r Row) Concat(o Row) Row {
	out := make(Row, 0, len(r)+len(o))
	out = append(out, r...)
	return append(out, o...)
}

// String renders the row as [v1, v2, ...].
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, c := range r {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Equal reports positional value equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Key renders a canonical string usable as a map key for duplicate
// elimination and grouping.
func (r Row) Key() string {
	var b strings.Builder
	for i, c := range r {
		if i > 0 {
			b.WriteByte('\x00')
		}
		b.WriteString(c.Kind().String())
		b.WriteByte(':')
		b.WriteString(c.String())
	}
	return b.String()
}

// RowBytes estimates the wire size of a row set: 8 bytes per numeric or
// boolean field, string length plus 8 per string field.
func RowBytes(rows []Row) int64 {
	var total int64
	for _, r := range rows {
		for _, c := range r {
			if c.Kind() == KindString {
				total += int64(len(c.AsString())) + 8
			} else {
				total += 8
			}
		}
	}
	return total
}
