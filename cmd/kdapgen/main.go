// Command kdapgen writes warehouse directories — from the built-in
// synthetic generators, or from a directory of CSV files plus a
// manifest.json (see internal/dataset for the format) — and drives
// streaming ingest against a running kdapd. A warehouse directory holds
// manifest.json beside one segment directory per table; kdapd and kdap
// serve it with -db DIR, and kdap.OpenWarehouse opens it from Go. CSV
// rows stream into the directory without the fact table ever being
// held in memory.
//
// Usage:
//
//	kdapgen -out ebiz -db ebiz                     # write a builtin
//	kdapgen -out mart -csv ./mydata                # CSVs → directory
//	kdapgen -info mart                             # inspect a directory
//	kdapgen -dot mart > schema.dot                 # schema diagram
//	kdapgen -emit -rows 100000 -skip 90000         # fact rows → JSON lines
//	kdapgen -stream URL -db online < rows.jsonl    # JSON lines → /api/ingest
//
// -emit generates AW_ONLINE scaled fact rows (internal/dataset) as one
// JSON array per line, in fact-schema column order; -skip drops the
// generated prefix so a warehouse already holding those rows receives
// only the tail. -stream reads such lines (from -in or stdin), batches
// them (-batch rows per request), and POSTs each batch to URL/api/ingest
// for warehouse -db, reporting sustained rows/sec. See docs/INGEST.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"kdap"
	"kdap/internal/csvload"
	"kdap/internal/dataset"
	"kdap/internal/persist"
	"kdap/internal/relation"
)

func main() {
	out := flag.String("out", "", "warehouse directory to write")
	db := flag.String("db", "", "builtin warehouse to write: ebiz, online, reseller (also the -stream target warehouse)")
	csvDir := flag.String("csv", "", "directory with manifest.json + CSV files to write as a warehouse directory")
	info := flag.String("info", "", "warehouse directory to summarize")
	dot := flag.String("dot", "", "warehouse directory to render as Graphviz DOT")
	emit := flag.Bool("emit", false, "emit AW_ONLINE scaled fact rows as JSON lines on stdout")
	rows := flag.Int("rows", 100000, "with -emit: total fact rows the scaled build generates")
	skip := flag.Int("skip", 0, "with -emit: drop this many generated rows before emitting (the warehouse's resident prefix)")
	stream := flag.String("stream", "", "kdapd base URL to stream JSON-line rows to via POST /api/ingest")
	batch := flag.Int("batch", 2048, "with -stream: rows per ingest request")
	in := flag.String("in", "", "with -stream: JSON-lines input file (default stdin)")
	flag.Parse()

	switch {
	case *emit:
		if err := emitRows(os.Stdout, *rows, *skip); err != nil {
			log.Fatal(err)
		}
	case *stream != "":
		if *db == "" {
			log.Fatal("need -db with -stream")
		}
		src := io.Reader(os.Stdin)
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			src = f
		}
		if err := streamRows(*stream, *db, *batch, src); err != nil {
			log.Fatal(err)
		}
	case *info != "":
		wh := mustLoad(*info)
		st := wh.DB.Stats()
		fmt.Printf("%s: %d tables, %d rows, %d full-text attribute domains, fact=%s\n",
			st.Name, st.Tables, st.Rows, st.FullTextColumns, wh.Graph.FactTable())
		for _, ts := range st.PerTable {
			fmt.Printf("  %-24s %8d rows\n", ts.Name, ts.Rows)
		}
		for _, d := range wh.Graph.Dimensions() {
			fmt.Printf("  dimension %-12s tables=%v hierarchies=%d groupBy=%d\n",
				d.Name, d.Tables, len(d.Hierarchies), len(d.GroupBy))
		}
	case *dot != "":
		fmt.Print(kdap.SchemaDOT(mustLoad(*dot)))
	case *out != "":
		var err error
		switch {
		case *csvDir != "":
			var m *dataset.Manifest
			if m, err = dataset.ReadManifest(filepath.Join(*csvDir, "manifest.json")); err == nil {
				err = persist.Write(*out, m, 0, csvload.Rows(*csvDir, m))
			}
		case *db == "ebiz":
			err = kdap.SaveWarehouse(*out, kdap.EBiz())
		case *db == "online":
			err = kdap.SaveWarehouse(*out, kdap.AWOnline())
		case *db == "reseller":
			err = kdap.SaveWarehouse(*out, kdap.AWReseller())
		default:
			log.Fatal("need -db or -csv with -out")
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// emitRows generates the scaled AW_ONLINE fact stream and writes rows
// [skip, total) as one JSON array per line: the generator is seeded, so
// a warehouse built from the first skip rows plus this tail holds
// exactly the rows a full build of total would.
func emitRows(w io.Writer, total, skip int) error {
	if skip < 0 || skip > total {
		return fmt.Errorf("-skip %d out of range 0..%d", skip, total)
	}
	b := dataset.NewAWOnlineScaledBuild(total)
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	i := 0
	err := b.GenerateFacts(func(vals []relation.Value) error {
		i++
		if i <= skip {
			return nil
		}
		row := make([]any, len(vals))
		for j, v := range vals {
			switch v.Kind() {
			case relation.KindInt:
				row[j] = v.IntVal()
			case relation.KindFloat:
				row[j] = v.FloatVal()
			case relation.KindString:
				row[j] = v.Str()
			default:
				row[j] = nil
			}
		}
		return enc.Encode(row)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// streamRows reads JSON-line rows from src, gathers them into batches,
// and POSTs each batch to base/api/ingest for warehouse db, reporting
// sustained throughput at the end.
func streamRows(base, db string, batchSize int, src io.Reader) error {
	if batchSize <= 0 {
		batchSize = 2048
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		pending []json.RawMessage
		total   int
		batches int
		started = time.Now()
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		body, err := json.Marshal(map[string]any{"db": db, "rows": pending})
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/api/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("ingest batch %d: status %d: %s", batches+1, resp.StatusCode, msg)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		total += len(pending)
		batches++
		pending = pending[:0]
		return nil
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		row := make([]json.RawMessage, 0, 8)
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("row %d: %v", total+len(pending)+1, err)
		}
		rowJSON, err := json.Marshal(row)
		if err != nil {
			return err
		}
		pending = append(pending, rowJSON)
		if len(pending) >= batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	dur := time.Since(started)
	rate := float64(total) / dur.Seconds()
	fmt.Printf("streamed %d rows in %d batches over %.2fs (%.0f rows/sec)\n",
		total, batches, dur.Seconds(), rate)
	return nil
}

func mustLoad(dir string) *kdap.Warehouse {
	wh, _, err := kdap.OpenWarehouse(dir)
	if err != nil {
		log.Fatal(err)
	}
	return wh
}
