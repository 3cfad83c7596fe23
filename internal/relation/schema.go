package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	// Name is the attribute name, unique within its table.
	Name string `json:"name"`
	// Kind is the declared type; inserted values must match it or be NULL
	// (ints are accepted into float columns and widened).
	Kind Kind `json:"kind"`
	// FullText marks the column as searchable: the full-text indexer
	// treats each distinct value of the column as a virtual document.
	FullText bool `json:"fullText"`
}

// ForeignKey declares that Column of the owning table references
// RefColumn of RefTable. KDAP schemas use single-column keys.
type ForeignKey struct {
	Column    string `json:"column"`
	RefTable  string `json:"refTable"`
	RefColumn string `json:"refColumn"`
}

// Schema is the declared structure of a table.
type Schema struct {
	// Name is the table name, unique within its database.
	Name string
	// Columns in declaration order.
	Columns []Column
	// Key names the primary-key column, or is empty for keyless tables
	// (fact tables are typically keyless here).
	Key string
	// ForeignKeys lists the outbound references of the table.
	ForeignKeys []ForeignKey

	byName map[string]int
}

// NewSchema builds a schema and validates that column names are unique and
// that declared keys refer to existing columns.
func NewSchema(name string, cols []Column, key string, fks []ForeignKey) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema with empty name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: schema %q has no columns", name)
	}
	s := &Schema{
		Name:        name,
		Columns:     append([]Column(nil), cols...),
		Key:         key,
		ForeignKeys: append([]ForeignKey(nil), fks...),
		byName:      make(map[string]int, len(cols)),
	}
	for i, c := range s.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: schema %q: column %d has empty name", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation: schema %q: duplicate column %q", name, c.Name)
		}
		if c.Kind == KindNull {
			return nil, fmt.Errorf("relation: schema %q: column %q declared null-kinded", name, c.Name)
		}
		s.byName[c.Name] = i
	}
	if key != "" {
		if _, ok := s.byName[key]; !ok {
			return nil, fmt.Errorf("relation: schema %q: key column %q not declared", name, key)
		}
	}
	for _, fk := range s.ForeignKeys {
		if _, ok := s.byName[fk.Column]; !ok {
			return nil, fmt.Errorf("relation: schema %q: foreign-key column %q not declared", name, fk.Column)
		}
		if fk.RefTable == "" || fk.RefColumn == "" {
			return nil, fmt.Errorf("relation: schema %q: foreign key on %q has empty target", name, fk.Column)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas such as the built-in datasets.
func MustSchema(name string, cols []Column, key string, fks []ForeignKey) *Schema {
	s, err := NewSchema(name, cols, key, fks)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the schema declares the named column.
func (s *Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// Column returns the named column. The second result is false if absent.
func (s *Schema) Column(name string) (Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// FullTextColumns returns the names of all columns marked FullText.
func (s *Schema) FullTextColumns() []string {
	var out []string
	for _, c := range s.Columns {
		if c.FullText {
			out = append(out, c.Name)
		}
	}
	return out
}

// String renders the schema as "name(col:kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}
