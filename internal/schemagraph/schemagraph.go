// Package schemagraph models the OLAP metadata KDAP operates on: which
// table is the fact table, how tables group into dimensions, which
// attribute chains form aggregation hierarchies, and — crucially for the
// paper's differentiate phase — every join path from a table holding a
// keyword hit to the fact table.
//
// The paper (§4.2) modifies classic keyword-join enumeration in two ways
// that this package encodes: every candidate join network must reach the
// fact table (the "minimal tuple tree" principle of DISCOVER does not
// apply), and paths need dimension/role labels so that the same physical
// table reachable through different foreign keys (Location via Store
// vs. via Customer; Account via BuyerKey vs. SellerKey) yields distinct
// semantic interpretations with distinct aliases.
package schemagraph

import (
	"fmt"
	"sort"
	"strings"

	"kdap/internal/relation"
)

// AttrRef names an attribute as (table, column).
type AttrRef struct {
	Table string `json:"table"`
	Attr  string `json:"attr"`
}

// String renders the reference as "Table.Attr".
func (a AttrRef) String() string { return a.Table + "." + a.Attr }

// Hierarchy is an ordered chain of attributes from the most general level
// (index 0, e.g. Year) to the most detailed (e.g. Date). Roll-up
// partitioning (§5.2.1) generalizes a hit attribute to the previous level.
type Hierarchy struct {
	Name   string    `json:"name"`
	Levels []AttrRef `json:"levels"`
}

// ParentOf returns the hierarchy level directly above attr, if attr is a
// non-root level of this hierarchy.
func (h Hierarchy) ParentOf(attr AttrRef) (AttrRef, bool) {
	for i, lv := range h.Levels {
		if lv == attr && i > 0 {
			return h.Levels[i-1], true
		}
	}
	return AttrRef{}, false
}

// Dimension groups the tables of one logical dimension and declares its
// hierarchies and candidate group-by attributes. Per §5.2.1 the candidate
// group-by attributes are manually specified (automatic discovery is the
// paper's future work), so they are schema metadata here.
type Dimension struct {
	Name string `json:"name"`
	// Tables owned by this dimension. A table may belong to several
	// dimensions (the paper's Location example).
	Tables []string `json:"tables"`
	// Hierarchies within this dimension, most general level first.
	Hierarchies []Hierarchy `json:"hierarchies"`
	// GroupBy lists the attributes eligible as facet group-by candidates.
	GroupBy []AttrRef `json:"groupBy"`
}

func (d *Dimension) ownsTable(name string) bool {
	for _, t := range d.Tables {
		if t == name {
			return true
		}
	}
	return false
}

// Hop is one join step: rows of FromTable relate to rows of ToTable where
// FromTable.FromCol = ToTable.ToCol. A Hop is symmetric — the executor may
// walk it in either direction.
type Hop struct {
	FromTable string
	FromCol   string
	ToTable   string
	ToCol     string
}

// Reverse returns the hop walked in the opposite direction.
func (h Hop) Reverse() Hop {
	return Hop{FromTable: h.ToTable, FromCol: h.ToCol, ToTable: h.FromTable, ToCol: h.FromCol}
}

// String renders the hop as "A.x=B.y".
func (h Hop) String() string {
	return fmt.Sprintf("%s.%s=%s.%s", h.FromTable, h.FromCol, h.ToTable, h.ToCol)
}

// JoinPath is a simple path from Source to the fact table.
type JoinPath struct {
	// Source is the table where the keyword hit lives.
	Source string
	// Hops lead from Source to the fact table, in walk order.
	Hops []Hop
	// Dim is the owning dimension's name, when determinable.
	Dim string
	// Role disambiguates multiple paths of the same dimension (the
	// paper's table-alias requirement): e.g. "Buyer" vs "Seller" for the
	// two Account joins, or the dimension name when unambiguous.
	Role string
}

// Target returns the final table of the path (the fact table for paths
// produced by JoinPaths).
func (p JoinPath) Target() string {
	if len(p.Hops) == 0 {
		return p.Source
	}
	return p.Hops[len(p.Hops)-1].ToTable
}

// Tables returns every table on the path, Source first.
func (p JoinPath) Tables() []string {
	out := []string{p.Source}
	for _, h := range p.Hops {
		out = append(out, h.ToTable)
	}
	return out
}

// Signature is a canonical string identifying the path, used for
// deduplication and for comparing interpretations in tests.
func (p JoinPath) Signature() string {
	// Hot path: the OLAP executor keys its per-path memos by signature,
	// so this runs on every group-by/aggregate call. One allocation.
	n := len(p.Source)
	for _, h := range p.Hops {
		n += 4 + len(h.FromTable) + len(h.FromCol) + len(h.ToTable) + len(h.ToCol)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(p.Source)
	for _, h := range p.Hops {
		b.WriteByte('|')
		b.WriteString(h.FromTable)
		b.WriteByte('.')
		b.WriteString(h.FromCol)
		b.WriteByte('>')
		b.WriteString(h.ToTable)
		b.WriteByte('.')
		b.WriteString(h.ToCol)
	}
	return b.String()
}

// String renders the path as "A -> B -> Fact [role]".
func (p JoinPath) String() string {
	return strings.Join(p.Tables(), " -> ") + " [" + p.Role + "]"
}

// edge is an FK edge with an optional role label.
type edge struct {
	hop  Hop // oriented from the FK-holding table to the referenced table
	role string
}

// Graph is the schema graph of one OLAP database.
type Graph struct {
	db   *relation.Database
	fact string
	// factExt lists header tables that are part of the fact complex
	// (e.g. TRANS when the grain table is TRANSITEM); they never resolve
	// to a dimension.
	factExt map[string]bool
	dims    []*Dimension
	dimsBy  map[string]*Dimension
	// roleDim maps an edge role label to its dimension name.
	roleDim map[string]string

	edges []edge
	adj   map[string][]int // table -> indexes into edges touching it

	maxHops int
	built   bool
}

// New creates a schema graph over db with the named fact (grain) table.
func New(db *relation.Database, factTable string) *Graph {
	return &Graph{
		db:      db,
		fact:    factTable,
		factExt: make(map[string]bool),
		dimsBy:  make(map[string]*Dimension),
		roleDim: make(map[string]string),
		maxHops: 8,
	}
}

// DB returns the underlying database.
func (g *Graph) DB() *relation.Database { return g.db }

// FactTable returns the fact (grain) table name.
func (g *Graph) FactTable() string { return g.fact }

// SetMaxHops bounds join-path enumeration length (default 8).
func (g *Graph) SetMaxHops(n int) { g.maxHops = n }

// AddFactExtension marks header tables as part of the fact complex.
func (g *Graph) AddFactExtension(tables ...string) {
	for _, t := range tables {
		g.factExt[t] = true
	}
}

// isFactish reports whether t is the fact table or a fact extension.
func (g *Graph) isFactish(t string) bool { return t == g.fact || g.factExt[t] }

// AddDimension registers a dimension. Dimension names must be unique.
func (g *Graph) AddDimension(d *Dimension) error {
	if _, dup := g.dimsBy[d.Name]; dup {
		return fmt.Errorf("schemagraph: duplicate dimension %q", d.Name)
	}
	g.dims = append(g.dims, d)
	g.dimsBy[d.Name] = d
	return nil
}

// LabelEdge assigns a role label to the FK edge held by (table, column)
// and binds the role to a dimension. Use it when one table references
// another through several foreign keys with different meanings (the
// paper's BuyerKey/SellerKey case).
func (g *Graph) LabelEdge(table, column, role, dimension string) {
	g.roleDim[role] = dimension
	for i := range g.edges {
		e := &g.edges[i]
		if e.hop.FromTable == table && e.hop.FromCol == column {
			e.role = role
		}
	}
}

// Build derives the edge set from the database's foreign keys and
// validates dimension metadata. Call it after all tables exist and before
// LabelEdge / JoinPaths.
func (g *Graph) Build() error {
	if g.db.Table(g.fact) == nil {
		return fmt.Errorf("schemagraph: fact table %q not in database", g.fact)
	}
	for ext := range g.factExt {
		if g.db.Table(ext) == nil {
			return fmt.Errorf("schemagraph: fact extension %q not in database", ext)
		}
	}
	g.edges = nil
	g.adj = make(map[string][]int)
	for _, name := range g.db.TableNames() {
		t := g.db.Table(name)
		for _, fk := range t.Schema().ForeignKeys {
			e := edge{hop: Hop{
				FromTable: name, FromCol: fk.Column,
				ToTable: fk.RefTable, ToCol: fk.RefColumn,
			}}
			idx := len(g.edges)
			g.edges = append(g.edges, e)
			g.adj[name] = append(g.adj[name], idx)
			g.adj[fk.RefTable] = append(g.adj[fk.RefTable], idx)
		}
	}
	for _, d := range g.dims {
		for _, tn := range d.Tables {
			if g.db.Table(tn) == nil {
				return fmt.Errorf("schemagraph: dimension %q lists missing table %q", d.Name, tn)
			}
		}
		for _, h := range d.Hierarchies {
			for _, lv := range h.Levels {
				t := g.db.Table(lv.Table)
				if t == nil || !t.Schema().HasColumn(lv.Attr) {
					return fmt.Errorf("schemagraph: dimension %q hierarchy %q: missing attribute %s", d.Name, h.Name, lv)
				}
			}
		}
		for _, a := range d.GroupBy {
			t := g.db.Table(a.Table)
			if t == nil || !t.Schema().HasColumn(a.Attr) {
				return fmt.Errorf("schemagraph: dimension %q group-by: missing attribute %s", d.Name, a)
			}
		}
	}
	g.built = true
	return nil
}

// Dimensions returns the registered dimensions in registration order.
func (g *Graph) Dimensions() []*Dimension {
	return append([]*Dimension(nil), g.dims...)
}

// FactExtensions returns the fact-complex header tables, sorted.
func (g *Graph) FactExtensions() []string {
	out := make([]string, 0, len(g.factExt))
	for t := range g.factExt {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// EdgeLabel is one role annotation on a foreign-key edge, as set by
// LabelEdge; a warehouse manifest lists them to reconstruct a graph.
type EdgeLabel struct {
	Table     string `json:"table"`
	Column    string `json:"column"`
	Role      string `json:"role"`
	Dimension string `json:"dimension"`
}

// EdgeLabels returns every labeled edge, ordered by (table, column).
func (g *Graph) EdgeLabels() []EdgeLabel {
	var out []EdgeLabel
	for _, e := range g.edges {
		if e.role == "" {
			continue
		}
		out = append(out, EdgeLabel{
			Table: e.hop.FromTable, Column: e.hop.FromCol,
			Role: e.role, Dimension: g.roleDim[e.role],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// MaxHops returns the join-path length bound.
func (g *Graph) MaxHops() int { return g.maxHops }

// Dimension returns the named dimension, or nil.
func (g *Graph) Dimension(name string) *Dimension { return g.dimsBy[name] }

// JoinPaths enumerates every simple path from the given table to the fact
// table, labeled with dimension and role, deterministically ordered by
// signature. It is the path half of Algorithm 1's star-net generation.
func (g *Graph) JoinPaths(from string) []JoinPath {
	if !g.built {
		panic("schemagraph: JoinPaths before Build")
	}
	if from == g.fact {
		return []JoinPath{{Source: from, Dim: "", Role: "Fact"}}
	}
	var out []JoinPath
	visited := map[string]bool{from: true}
	var hops []Hop
	var roles []string
	var dfs func(cur string)
	dfs = func(cur string) {
		if len(hops) > g.maxHops {
			return
		}
		if cur == g.fact {
			p := JoinPath{Source: from, Hops: append([]Hop(nil), hops...)}
			p.Dim, p.Role = g.classify(p, roles)
			out = append(out, p)
			return
		}
		for _, ei := range g.adj[cur] {
			e := g.edges[ei]
			var next string
			var hop Hop
			if e.hop.FromTable == cur {
				next, hop = e.hop.ToTable, e.hop
			} else {
				next, hop = e.hop.FromTable, e.hop.Reverse()
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			hops = append(hops, hop)
			roles = append(roles, e.role)
			dfs(next)
			hops = hops[:len(hops)-1]
			roles = roles[:len(roles)-1]
			visited[next] = false
		}
	}
	dfs(from)
	sort.Slice(out, func(i, j int) bool { return out[i].Signature() < out[j].Signature() })
	return out
}

// classify determines the dimension and role of a path. Role labels on
// edges win; otherwise the path is owned by the unique dimension of the
// first non-fact table encountered walking from the fact end.
func (g *Graph) classify(p JoinPath, edgeRoles []string) (dim, role string) {
	for _, r := range edgeRoles {
		if r != "" {
			return g.roleDim[r], r
		}
	}
	tables := p.Tables()
	for i := len(tables) - 1; i >= 0; i-- {
		t := tables[i]
		if g.isFactish(t) {
			continue
		}
		var owners []string
		for _, d := range g.dims {
			if d.ownsTable(t) {
				owners = append(owners, d.Name)
			}
		}
		if len(owners) == 1 {
			return owners[0], owners[0]
		}
		if len(owners) > 1 {
			// Ambiguous at this table; keep walking outward — a nearer-
			// to-fact table should have resolved it, so walking further
			// out will not help. Fall through to unknown.
			break
		}
	}
	return "", "?"
}

// PathFromFact returns the canonical path from table to the fact whose
// role matches role (or whose dimension matches when role is a dimension
// name). Used by the facet executor to map fact rows to group-by
// attribute values consistently with the user's chosen interpretation.
func (g *Graph) PathFromFact(table, role string) (JoinPath, bool) {
	paths := g.JoinPaths(table)
	// Prefer exact role match, then dimension match, then shortest.
	var best *JoinPath
	for i := range paths {
		p := &paths[i]
		if p.Role == role {
			return *p, true
		}
		if p.Dim == role && (best == nil || len(p.Hops) < len(best.Hops)) {
			best = p
		}
	}
	if best != nil {
		return *best, true
	}
	if len(paths) > 0 {
		// Deterministic fallback: the shortest path.
		bi := 0
		for i := range paths {
			if len(paths[i].Hops) < len(paths[bi].Hops) {
				bi = i
			}
		}
		return paths[bi], true
	}
	return JoinPath{}, false
}

// HierarchyParent finds, across all dimensions, the hierarchy level above
// the given attribute, together with the owning dimension. Roll-up
// partitioning uses it to build the background space.
func (g *Graph) HierarchyParent(attr AttrRef) (parent AttrRef, dim *Dimension, ok bool) {
	for _, d := range g.dims {
		for _, h := range d.Hierarchies {
			if p, found := h.ParentOf(attr); found {
				return p, d, true
			}
		}
	}
	return AttrRef{}, nil, false
}

// DimensionOfTable returns the dimensions owning a table.
func (g *Graph) DimensionOfTable(table string) []*Dimension {
	var out []*Dimension
	for _, d := range g.dims {
		if d.ownsTable(table) {
			out = append(out, d)
		}
	}
	return out
}

// InnerPathsWithin enumerates simple paths between two tables that stay
// inside one dimension's tables; the roll-up executor uses them to
// navigate within a dimension (e.g. Subcategory → Category) without
// straying through tables another dimension shares.
func (g *Graph) InnerPathsWithin(from, to string, dim *Dimension) []JoinPath {
	paths := g.InnerPaths(from, to)
	if dim == nil {
		return paths
	}
	var out []JoinPath
	for _, p := range paths {
		ok := true
		for _, tb := range p.Tables() {
			if !dim.ownsTable(tb) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// InnerPaths enumerates simple paths between two tables that avoid the
// fact complex entirely.
func (g *Graph) InnerPaths(from, to string) []JoinPath {
	if !g.built {
		panic("schemagraph: InnerPaths before Build")
	}
	var out []JoinPath
	visited := map[string]bool{from: true}
	var hops []Hop
	var dfs func(cur string)
	dfs = func(cur string) {
		if len(hops) > g.maxHops {
			return
		}
		if cur == to {
			out = append(out, JoinPath{Source: from, Hops: append([]Hop(nil), hops...)})
			return
		}
		for _, ei := range g.adj[cur] {
			e := g.edges[ei]
			var next string
			var hop Hop
			if e.hop.FromTable == cur {
				next, hop = e.hop.ToTable, e.hop
			} else {
				next, hop = e.hop.FromTable, e.hop.Reverse()
			}
			if visited[next] || g.isFactish(next) {
				continue
			}
			visited[next] = true
			hops = append(hops, hop)
			dfs(next)
			hops = hops[:len(hops)-1]
			visited[next] = false
		}
	}
	if g.isFactish(from) || g.isFactish(to) {
		return nil
	}
	dfs(from)
	sort.Slice(out, func(i, j int) bool { return out[i].Signature() < out[j].Signature() })
	return out
}
