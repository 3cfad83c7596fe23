// Package kdap implements Keyword-Driven Analytical Processing (KDAP):
// keyword search over an OLAP star/snowflake schema combined with
// multi-dimensional aggregation, after Wu, Sismanis & Reinwald
// (SIGMOD 2007).
//
// A KDAP session has two phases. In the differentiate phase, a keyword
// query such as "Columbus LCD" is expanded into ranked candidate star
// nets — join trees through the fact table annotated with the attribute
// instances each keyword matched — so the analyst can pick the intended
// interpretation ("users don't know how to specify what they want, but
// they know it when they see it"). In the explore phase, the chosen
// interpretation's sub-dataspace is aggregated and organized into dynamic
// facets: the most interesting group-by attributes per dimension, ranked
// by roll-up partitioning (how much the local aggregate distribution
// deviates from — or, in bellwether mode, tracks — the rolled-up
// background distribution), with numeric domains bucketized and merged
// into display ranges by simulated annealing.
//
// Quick start:
//
//	wh := kdap.EBiz() // or kdap.AWOnline(), or build your own warehouse
//	engine := kdap.NewEngine(wh)
//	ctx := context.Background()
//	nets, _ := engine.DifferentiateCtx(ctx, "Columbus LCD")
//	facets, _ := engine.ExploreCtx(ctx, nets[0], kdap.DefaultExploreOptions())
//	fmt.Print(kdap.RenderFacets(facets))
package kdap

import (
	"kdap/internal/cache"
	"kdap/internal/csvload"
	"kdap/internal/dataset"
	"kdap/internal/fulltext"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// Warehouse bundles a database with its schema graph and full-text index.
type Warehouse = dataset.Warehouse

// Engine is a KDAP session over one warehouse.
type Engine = kdapcore.Engine

// Session is the interactive query → pick → explore → drill state
// machine; front ends hold one per user.
type Session = kdapcore.Session

// StarNet is one candidate interpretation of a keyword query.
type StarNet = kdapcore.StarNet

// BoundGroup is a hit group bound to a join path within a star net.
type BoundGroup = kdapcore.BoundGroup

// HitGroup collects the hits of one or more keywords in one attribute
// domain.
type HitGroup = kdapcore.HitGroup

// Hit is a single attribute-instance match for a keyword.
type Hit = kdapcore.Hit

// Facets is the explore-phase result: the dynamic multi-faceted interface
// over a sub-dataspace.
type Facets = kdapcore.Facets

// DimensionFacets groups one dimension's selected facets.
type DimensionFacets = kdapcore.DimensionFacets

// AttrFacet is one ranked group-by attribute with organized instances.
type AttrFacet = kdapcore.AttrFacet

// Instance is one attribute value or numeric range inside a facet.
type Instance = kdapcore.Instance

// ExploreOptions parameterize facet construction.
type ExploreOptions = kdapcore.ExploreOptions

// InterestMode selects the interestingness measure (Surprise/Bellwether).
type InterestMode = kdapcore.InterestMode

// RankMethod selects the star-net ranking formula.
type RankMethod = kdapcore.RankMethod

// AnnealConfig parameterizes the numeric interval merge (Algorithm 2).
type AnnealConfig = kdapcore.AnnealConfig

// AnswerCacheStats snapshots one answer cache's counters
// (Engine.AnswerCacheStats).
type AnswerCacheStats = cache.AnswerStats

// MergeResult is the outcome of a numeric interval merge.
type MergeResult = kdapcore.MergeResult

// Interestingness modes.
const (
	Surprise   = kdapcore.Surprise
	Bellwether = kdapcore.Bellwether
)

// Star-net ranking methods (Figure 4 of the paper).
const (
	Standard        = kdapcore.Standard
	NoGroupNumNorm  = kdapcore.NoGroupNumNorm
	NoGroupSizeNorm = kdapcore.NoGroupSizeNorm
	Baseline        = kdapcore.Baseline
)

// Measure evaluates a numeric measure over one fact row.
type Measure = olap.Measure

// Agg selects the aggregation function.
type Agg = olap.Agg

// Executor runs star-net slicing, aggregation, group-by, and pivot
// queries; obtain one from Engine.Executor().
type Executor = olap.Executor

// PivotTable is a two-dimensional cross-tabulation with margins.
type PivotTable = olap.PivotTable

// Aggregation functions.
const (
	Sum   = olap.Sum
	Count = olap.Count
	Avg   = olap.Avg
	Min   = olap.Min
	Max   = olap.Max
)

// Graph is the OLAP metadata layer: fact table, dimensions, hierarchies,
// and join-path enumeration.
type Graph = schemagraph.Graph

// Dimension declares one dimension's tables, hierarchies, and group-by
// candidates.
type Dimension = schemagraph.Dimension

// Hierarchy is an ordered attribute chain from general to detailed.
type Hierarchy = schemagraph.Hierarchy

// AttrRef names an attribute as (table, column).
type AttrRef = schemagraph.AttrRef

// Database is the in-memory relational store warehouses are built on.
type Database = relation.Database

// Table is one relation inside a Database.
type Table = relation.Table

// Schema declares a table's columns and keys.
type Schema = relation.Schema

// Column declares one attribute of a table.
type Column = relation.Column

// ForeignKey declares a key reference between tables.
type ForeignKey = relation.ForeignKey

// Value is a dynamically typed relational value.
type Value = relation.Value

// Index is the attribute-instance full-text index.
type Index = fulltext.Index

// EBiz builds the paper's Figure 2 running-example warehouse: a small
// e-commerce schema with the Columbus city/holiday ambiguity, the shared
// location table, dual buyer/seller account joins, and two product
// hierarchies.
func EBiz() *Warehouse { return dataset.EBiz() }

// AWOnline returns the synthetic AW_ONLINE warehouse used by the paper's
// evaluation (5 dimensions, 10 tables, >60k internet-sales facts). The
// warehouse is built once and shared.
func AWOnline() *Warehouse { return dataset.AWOnline() }

// AWReseller returns the synthetic AW_RESELLER warehouse (7 dimensions,
// 13 tables, >60k reseller-sales facts). Built once and shared.
func AWReseller() *Warehouse { return dataset.AWReseller() }

// NewEngine creates an engine over a warehouse with the paper's default
// measure: SUM of sales revenue (UnitPrice × quantity) when the fact
// table has those columns, COUNT of fact rows otherwise.
func NewEngine(wh *Warehouse) *Engine {
	return NewEngineWithMeasure(wh, RevenueMeasure(wh), Sum)
}

// NewSession creates an interactive session over an engine.
func NewSession(e *Engine, opts ExploreOptions) *Session {
	return kdapcore.NewSession(e, opts)
}

// NewEngineWithMeasure creates an engine with a caller-chosen measure and
// aggregation function (§5 notes user-defined measures as an extension;
// they are first-class here).
func NewEngineWithMeasure(wh *Warehouse, m Measure, agg Agg) *Engine {
	return kdapcore.NewEngine(wh.Graph, wh.Index, m, agg)
}

// RevenueMeasure returns the warehouse's sales-revenue measure: the
// product of its unit-price and quantity fact columns, falling back to a
// row count when the fact table has no such columns.
func RevenueMeasure(wh *Warehouse) Measure {
	return olap.RevenueMeasure(wh.DB.Table(wh.Graph.FactTable()))
}

// DefaultExploreOptions returns the paper's default explore parameters
// (surprise mode, 40 basic intervals, 6 display ranges, 500 annealing
// iterations).
func DefaultExploreOptions() ExploreOptions { return kdapcore.DefaultExploreOptions() }

// DefaultAnnealConfig returns the paper's default interval-merge
// parameters.
func DefaultAnnealConfig() AnnealConfig { return kdapcore.DefaultAnnealConfig() }

// MergeIntervals merges basic-interval series into K display ranges
// (Algorithm 2), preserving the basic-interval correlation as closely as
// the skew constraint allows.
func MergeIntervals(x, y []float64, cfg AnnealConfig) MergeResult {
	return kdapcore.MergeIntervals(x, y, cfg)
}

// Discovery is one result of Engine.Discover: a subspace and its most
// interesting group-by attribute.
type Discovery = kdapcore.Discovery

// NumericFilter is a resolved numeric query predicate ("DealerPrice>1000").
type NumericFilter = kdapcore.NumericFilter

// LoadCSVWarehouse builds a warehouse from a directory containing CSV
// files and a manifest.json describing tables, keys, dimensions, and
// hierarchies — see dataset.Manifest in internal/dataset for the format.
// This is the bring-your-own-data entry point.
func LoadCSVWarehouse(dir string) (*Warehouse, error) { return csvload.LoadDir(dir) }

// SegmentStore is the pager behind a warehouse directory's fact table:
// its column files and page cache, with skip/paging counters (Stats),
// the cache-budget knob (SetCacheBudget) and Close, which makes
// appended rows durable.
type SegmentStore = persist.Store

// SaveWarehouse writes wh as a warehouse directory at dir: manifest.json
// (tables, keys, dimensions, hierarchies, edge labels) beside one
// segment directory per table. Reopen it with OpenWarehouse.
func SaveWarehouse(dir string, wh *Warehouse) error { return persist.Save(dir, wh, 0) }

// OpenWarehouse opens a warehouse directory written by SaveWarehouse or
// kdapgen -out. The fact table pages its segments in on demand through
// the returned store, so fact data larger than memory serves in bounded
// RSS; the other tables are read into memory, and the schema graph and
// full-text index are rebuilt. Answers are byte-identical to the
// warehouse that was saved.
func OpenWarehouse(dir string) (*Warehouse, *SegmentStore, error) { return persist.Open(dir) }

// --- building custom warehouses ---

// Value constructors for populating custom warehouses.
var (
	// String wraps a Go string as a relational value.
	String = relation.String
	// Int wraps an int64 as a relational value.
	Int = relation.Int
	// Float wraps a float64 as a relational value.
	Float = relation.Float
	// Bool wraps a bool as a relational value.
	Bool = relation.Bool
	// Null returns the NULL value.
	Null = relation.Null
)

// Value kinds for declaring column types.
const (
	KindString = relation.KindString
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindBool   = relation.KindBool
)

// NewDatabase creates an empty in-memory database.
func NewDatabase(name string) *Database { return relation.NewDatabase(name) }

// NewSchema declares a table schema; key may be empty for keyless (fact)
// tables.
func NewSchema(name string, cols []Column, key string, fks []ForeignKey) (*Schema, error) {
	return relation.NewSchema(name, cols, key, fks)
}

// MustSchema is NewSchema that panics on error, for statically known
// schemas.
func MustSchema(name string, cols []Column, key string, fks []ForeignKey) *Schema {
	return relation.MustSchema(name, cols, key, fks)
}

// NewGraph creates the OLAP metadata layer over a database with the named
// fact (grain) table. Register dimensions with AddDimension, then call
// Build.
func NewGraph(db *Database, factTable string) *Graph { return schemagraph.New(db, factTable) }

// NewIndex creates an empty full-text index; call IndexDatabase to index
// every FullText column's distinct values, then Freeze.
func NewIndex() *Index { return fulltext.NewIndex() }

// BuildWarehouse assembles a Warehouse from its parts, freezing the
// database and index for concurrent reads. The graph must already be
// Built.
func BuildWarehouse(db *Database, g *Graph) *Warehouse { return dataset.NewWarehouse(db, g) }
