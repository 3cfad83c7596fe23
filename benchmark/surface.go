package main

// surface.go is the only file of the benchmark that names a symbol of
// the program. Everything else goes through the aliases and wrappers
// below, so a rename in the program breaks the build here and nowhere
// else, and the README's list of pinned names is this file's imports
// read top to bottom. Where a function has X/XCtx twins the Ctx-taking
// one is used (Engine.Drill has no twin).

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"kdap/client"
	"kdap/internal/dataset"
	"kdap/internal/fulltext"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/server"
	paper "kdap/internal/workload"
)

type (
	warehouse     = dataset.Warehouse
	serverOptions = server.Options
	factValue     = relation.Value
	wlQuery       = paper.Query

	apiClient   = client.Client
	apiFacets   = client.Facets
	apiAttr     = client.AttrFacet
	apiInstance = client.Instance
	apiError    = client.APIError
	apiExplore  = client.ExploreOptions

	engine   = kdapcore.Engine
	starNet  = kdapcore.StarNet
	joinPath = schemagraph.JoinPath
)

// exploreDefaults leaves mode and top-k to the server, as the web UI does.
var exploreDefaults apiExplore

// dbName is the one warehouse name every benchmark server exposes.
const dbName = "aw"

func buildAWOnline() *warehouse           { return dataset.AWOnline() }
func buildAWScaled(facts int) *warehouse  { return dataset.AWOnlineScaled(facts) }
func paperQueries() []wlQuery             { return paper.AWOnlineQueries() }
func defaultServerOptions() serverOptions { return server.DefaultOptions() }

func buildAWScaledPartial(facts, resident int) (*warehouse, [][]factValue) {
	return dataset.AWOnlineScaledPartial(facts, resident)
}

func factLen(wh *warehouse) int { return wh.DB.Table(wh.Graph.FactTable()).Len() }

// newServer builds the handler kdapd would serve for wh. Access lines
// are formatted as kdapd formats them and then discarded, so the
// logging cost stays in the measurement and stderr stays readable.
func newServer(wh *warehouse, opts serverOptions) http.Handler {
	s := server.NewWithOptions(map[string]*warehouse{dbName: wh}, opts)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	return s
}

func newAPIClient(base string, hc *http.Client) *apiClient { return client.New(base, hc) }

// newMirrorEngine builds an engine over wh exactly as
// server.NewWithOptions builds its own: the SalesRevenue product
// measure, SUM, and the answer cache the options ask for.
func newMirrorEngine(wh *warehouse, opts serverOptions) *engine {
	fact := wh.DB.Table(wh.Graph.FactTable())
	m := olap.ProductMeasure(fact, "SalesRevenue", "UnitPrice", "OrderQuantity")
	e := kdapcore.NewEngine(wh.Graph, wh.Index, m, olap.Sum)
	e.SetAnswerCache(opts.AnswerCacheSize, opts.AnswerCacheTTL)
	return e
}

// mirrorCacheHits reads the mirror's answer-cache hit counters, which is
// how the replay tells an answer served from the cache (nothing below
// kdapcore ran) from a computed one. Both are 0 with the cache off.
func mirrorCacheHits(e *engine) (differentiate, explore int64) {
	d, x, _ := e.AnswerCacheStats()
	return d.Hits, x.Hits
}

// mirrorExploreOptions are the options the /api/explore handler runs a
// request without overrides under.
func mirrorExploreOptions() kdapcore.ExploreOptions {
	o := kdapcore.DefaultExploreOptions()
	o.Parallel = true
	return o
}

func engineDifferentiate(ctx context.Context, e *engine, q string) ([]*starNet, error) {
	return e.DifferentiateCtx(ctx, q)
}

// engineExplore returns only what the replay needs of the facets: the
// attributes that made it into the answer, as the HTTP response lists
// them.
func engineExplore(ctx context.Context, e *engine, sn *starNet) ([]facetAttr, error) {
	f, err := e.ExploreCtx(ctx, sn, mirrorExploreOptions())
	if err != nil {
		return nil, err
	}
	var out []facetAttr
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			out = append(out, facetAttr{table: a.Attr.Table, attr: a.Attr.Attr, role: a.Role, numeric: a.Numeric})
		}
	}
	return out, nil
}

func engineDrill(e *engine, sn *starNet, a apiAttr, value string) (*starNet, error) {
	return e.Drill(sn, schemagraph.AttrRef{Table: a.Table, Attr: a.Attr}, a.Role, relation.String(value))
}

func engineDrillRange(e *engine, sn *starNet, a apiAttr, lo, hi float64) (*starNet, error) {
	return e.DrillRange(sn, schemagraph.AttrRef{Table: a.Table, Attr: a.Attr}, a.Role, lo, hi)
}

func engineAppend(ctx context.Context, e *engine, rows [][]factValue) (int, error) {
	res, err := e.AppendFacts(ctx, rows)
	return res.Rows, err
}

// fulltextSearch is the probe differentiate issues per keyword.
func fulltextSearch(ctx context.Context, e *engine, keyword string) (hits int, err error) {
	h, err := e.Index().SearchCtx(ctx, keyword, fulltext.Options{Prefix: true, Limit: 200})
	return len(h), err
}

func olapFactRows(ctx context.Context, e *engine, sn *starNet) ([]int, error) {
	return e.Executor().FactRowsCtx(ctx, sn.Constraints())
}

func pathFromFact(e *engine, table, role string) (joinPath, bool) {
	return e.Graph().PathFromFact(table, role)
}

func olapGroupBy(ctx context.Context, e *engine, rows []int, attr string, p joinPath) (groups int, err error) {
	g, err := e.Executor().GroupByCtx(ctx, rows, attr, p, e.Measure(), e.Agg())
	return len(g), err
}

func olapNumericSeries(ctx context.Context, e *engine, rows []int, attr string, p joinPath) (points int, err error) {
	s, err := e.Executor().NumericSeriesCtx(ctx, rows, attr, p, e.Measure())
	return len(s), err
}

// appendFactJSON appends one fact row as the JSON array /api/ingest
// decodes: integers and shortest round-trip floats, so the server
// rebuilds bit-identical values.
func appendFactJSON(b []byte, row []factValue) []byte {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind() {
		case relation.KindInt:
			b = strconv.AppendInt(b, v.IntVal(), 10)
		case relation.KindFloat:
			b = strconv.AppendFloat(b, v.FloatVal(), 'g', -1, 64)
		default:
			b = append(b, "null"...)
		}
	}
	return append(b, ']')
}
