package server

// Streaming ingest over HTTP: POST /api/ingest appends a batch of fact
// rows to one warehouse through the engine's incremental append path
// (kdapcore.AppendFacts). The route shares the query endpoints'
// lifecycle layer — admission control, per-request deadline, trace —
// so a query storm and an ingest storm shed against the same
// budget, and adds its own guards: a larger body limit than the query
// routes (batches are bulky) and a per-batch row cap so one request
// cannot monopolize the single writer. See docs/INGEST.md.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

const (
	// maxIngestBody bounds the /api/ingest request body. Ingest batches
	// are far larger than query bodies (readJSON caps those at 1 MiB):
	// at the default row cap a worst-case all-string batch still fits.
	maxIngestBody = 16 << 20
	// maxIngestRows caps rows per batch. Appends are serialized by the
	// engine's ingest mutex, so the cap bounds how long one request can
	// hold the writer; clients split larger loads into multiple batches.
	maxIngestRows = 65536
)

// ingestRequest is the /api/ingest body: the target warehouse and the
// batch as row arrays in fact-schema column order. JSON values map onto
// the schema's kinds (numbers to int or float columns, strings to
// string columns, null anywhere).
type ingestRequest struct {
	DB   string              `json:"db"`
	Rows [][]json.RawMessage `json:"rows"`
}

// IngestResponse answers /api/ingest with the engine's append summary
// plus the warehouse's post-append state.
type IngestResponse struct {
	DB string `json:"db"`
	// Start and Rows delimit the accepted batch: rows [Start, Start+Rows).
	Start int `json:"start"`
	Rows  int `json:"rows"`
	// FactRows is the fact table's total row count right after this
	// batch landed, Start+Rows, whatever other batches landed since.
	FactRows int `json:"factRows"`
	// IngestSeq is the engine's batch sequence number as this batch left
	// it; it participates in the query endpoints' ETags.
	IngestSeq uint64 `json:"ingestSeq"`
	// NewTerms counts full-text terms first seen in this batch.
	NewTerms int `json:"newTerms,omitempty"`
	// EvictedAnswers and KeptAnswers report the answer-cache
	// invalidation: how many cached answers this batch retired (every
	// explore answer, and every differentiate answer when it added new
	// terms), and how many survived it.
	EvictedAnswers int                 `json:"evictedAnswers"`
	KeptAnswers    int                 `json:"keptAnswers"`
	Trace          *telemetry.SpanJSON `json:"trace,omitempty"`
}

// rejectIngest sheds one ingest request before the writer is touched,
// counting the rejection by reason.
func (s *Server) rejectIngest(w http.ResponseWriter, status int, reason, msg string) {
	s.reg.Counter("kdap_ingest_rejected_total",
		"Ingest batches rejected before any row landed, by reason (body over the byte limit, batch over the row cap, malformed rows, unknown warehouse).",
		"reason", reason).Inc()
	writeError(w, status, msg)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.rejectIngest(w, http.StatusRequestEntityTooLarge, "body",
				fmt.Sprintf("request body exceeds %d bytes; split the batch", mbe.Limit))
			return
		}
		s.rejectIngest(w, http.StatusBadRequest, "json", "invalid JSON: "+err.Error())
		return
	}
	e, ok := s.engines[req.DB]
	if !ok {
		s.rejectIngest(w, http.StatusNotFound, "db", fmt.Sprintf("unknown warehouse %q", req.DB))
		return
	}
	if len(req.Rows) == 0 {
		s.rejectIngest(w, http.StatusBadRequest, "empty", "rows is empty")
		return
	}
	if len(req.Rows) > maxIngestRows {
		s.rejectIngest(w, http.StatusRequestEntityTooLarge, "rows",
			fmt.Sprintf("batch has %d rows (max %d); split the batch", len(req.Rows), maxIngestRows))
		return
	}
	tr := telemetry.FromContext(r.Context())
	tr.Describe(req.DB, fmt.Sprintf("ingest %d rows", len(req.Rows)))

	fact := e.Graph().DB().Table(e.Graph().FactTable())
	rows, err := decodeFactRows(fact.Schema(), req.Rows)
	if err != nil {
		s.rejectIngest(w, http.StatusBadRequest, "decode", err.Error())
		return
	}

	res, err := e.AppendFacts(r.Context(), rows)
	if err != nil {
		// AppendFacts validates the whole batch before any row lands, so
		// a rejection here leaves the warehouse untouched.
		s.rejectIngest(w, http.StatusBadRequest, "rows_invalid", err.Error())
		return
	}
	resp := IngestResponse{
		DB:             req.DB,
		Start:          res.Start,
		Rows:           res.Rows,
		FactRows:       res.Start + res.Rows,
		IngestSeq:      res.Seq,
		NewTerms:       res.NewTerms,
		EvictedAnswers: res.EvictedExplore + res.EvictedDiff,
		KeptAnswers:    res.Kept,
	}
	if wantTrace(r) {
		resp.Trace = tr.JSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeFactRows maps JSON rows onto the fact schema: each row must
// carry one value per column, each value decodable to its column's
// kind. The whole batch is rejected on the first bad value — nothing
// lands — and errors name the row, column, and expectation.
func decodeFactRows(schema *relation.Schema, raw [][]json.RawMessage) ([][]relation.Value, error) {
	cols := schema.Columns
	rows := make([][]relation.Value, len(raw))
	for i, rr := range raw {
		if len(rr) != len(cols) {
			return nil, fmt.Errorf("row %d has %d values, schema %s has %d columns", i, len(rr), schema.Name, len(cols))
		}
		row := make([]relation.Value, len(cols))
		for j, m := range rr {
			v, err := decodeValue(cols[j].Kind, m)
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %v", i, cols[j].Name, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return rows, nil
}

// decodeValue decodes one JSON value against a declared column kind.
// JSON null maps to the relational NULL for any kind; numbers headed
// for int columns must be integral (no silent truncation).
func decodeValue(kind relation.Kind, m json.RawMessage) (relation.Value, error) {
	s := string(m)
	if s == "null" {
		return relation.Null(), nil
	}
	switch kind {
	case relation.KindInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("want integer, got %s", s)
		}
		return relation.Int(n), nil
	case relation.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("want number, got %s", s)
		}
		return relation.Float(f), nil
	case relation.KindString:
		var str string
		if err := json.Unmarshal(m, &str); err != nil {
			return relation.Value{}, fmt.Errorf("want string, got %s", s)
		}
		return relation.String(str), nil
	case relation.KindBool:
		switch s {
		case "true":
			return relation.Bool(true), nil
		case "false":
			return relation.Bool(false), nil
		}
		return relation.Value{}, fmt.Errorf("want bool, got %s", s)
	}
	return relation.Value{}, fmt.Errorf("unsupported column kind %v", kind)
}
