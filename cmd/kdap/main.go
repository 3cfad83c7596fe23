// Command kdap is an interactive KDAP session over one warehouse — a
// built-in one, a warehouse directory written by kdapgen -out, or a CSV
// mart: type a keyword query, pick an interpretation, explore the
// dynamic facets, and drill down — the paper's Figure 1 loop as a REPL.
//
// Usage:
//
//	kdap [-db ebiz|online|reseller|DIR] [-csv dir] [-mode surprise|bellwether] [-trace] [-timeout 0]
//	     [-answer-cache-size 128] [-answer-cache-ttl 0]
//
// With -trace, every query / pick / drill prints an indented per-stage
// timing tree (the same span tree the HTTP API returns behind
// ?trace=1) after its output.
//
// Commands inside the session:
//
//	<keywords>   run a keyword query and list ranked interpretations
//	pick N       select interpretation N and show its facets
//	drill N M    drill into instance M of facet attribute N
//	back         undo the last drill
//	sql          print the SQL the current interpretation stands for
//	explain N    break down interpretation N's ranking score
//	csv          print the current facets as CSV
//	pivot N M    cross-tabulate facet attributes N and M
//	mode X       switch interestingness (surprise / bellwether)
//	stats        print cache hit rates and sizes for this session
//	profile      print the execution profile of the last operation
//	help, quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kdap"
)

// repl wraps a kdap.Session with terminal rendering.
type repl struct {
	s     *kdap.Session
	trace bool // print each operation's span tree
}

func main() {
	db := flag.String("db", "ebiz", "warehouse: ebiz, online, reseller, or a warehouse directory written by kdapgen -out")
	csvDir := flag.String("csv", "", "load a CSV directory with manifest.json instead of -db")
	mode := flag.String("mode", "surprise", "interestingness: surprise, bellwether")
	trace := flag.Bool("trace", false, "print a per-stage timing tree after each query/pick/drill")
	timeout := flag.Duration("timeout", 0,
		"per-operation deadline for query/pick/drill (0 disables); overruns abort with a deadline error")
	answerCacheSize := flag.Int("answer-cache-size", 128,
		"answer cache entries per phase; repeated queries and back-navigation are served instantly (0 disables)")
	answerCacheTTL := flag.Duration("answer-cache-ttl", 0,
		"answer cache entry lifetime (0 = no expiry; the data never changes under a REPL session)")
	flag.Parse()

	var wh *kdap.Warehouse
	var err error
	switch {
	case *csvDir != "":
		wh, err = kdap.LoadCSVWarehouse(*csvDir)
	case *db == "ebiz":
		wh = kdap.EBiz()
	case *db == "online":
		wh = kdap.AWOnline()
	case *db == "reseller":
		wh = kdap.AWReseller()
	default:
		var store *kdap.SegmentStore
		if wh, store, err = kdap.OpenWarehouse(*db); err == nil {
			defer store.Close() // the REPL only reads
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := kdap.DefaultExploreOptions()
	engine := kdap.NewEngine(wh)
	engine.SetAnswerCache(*answerCacheSize, *answerCacheTTL)
	r := &repl{s: kdap.NewSession(engine, opts), trace: *trace}
	if *timeout > 0 {
		r.s.SetTimeout(*timeout)
	}
	if err := r.setMode(*mode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("KDAP session on %s (%d fact rows). Type keywords, or 'help'.\n",
		wh.DB.Name(), wh.DB.Table(wh.Graph.FactTable()).Len())
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("kdap> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line != "" {
			r.handle(line)
		}
		fmt.Print("kdap> ")
	}
}

func (r *repl) setMode(m string) error {
	switch m {
	case "surprise":
		return r.s.SetMode(kdap.Surprise)
	case "bellwether":
		return r.s.SetMode(kdap.Bellwether)
	default:
		return fmt.Errorf("unknown mode %q (want surprise or bellwether)", m)
	}
}

func (r *repl) handle(line string) {
	before := r.s.LastTrace()
	r.dispatch(line)
	// A fresh trace means the command ran a traced engine operation;
	// print its stage breakdown under the command's own output.
	if tr := r.s.LastTrace(); r.trace && tr != nil && tr != before {
		fmt.Print(tr.Tree())
	}
}

func (r *repl) dispatch(line string) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Println("  <keywords>   run a keyword query (numeric predicates like DealerPrice>100 work too)\n" +
			"  pick N       select interpretation N\n" +
			"  drill N M    drill into instance M of facet attribute N\n" +
			"  back         undo the last drill\n" +
			"  sql          print the SQL the current interpretation stands for\n" +
			"  explain N    break down interpretation N's ranking score\n" +
			"  csv          print the current facets as CSV\n" +
			"  pivot N M    cross-tabulate facet attributes N and M\n" +
			"  mode X       surprise / bellwether\n" +
			"  stats        cache hit rates and sizes for this session\n" +
			"  profile      execution profile of the last query/pick/drill (cache, segments, kernels, stages)\n" +
			"  quit")
	case "pick":
		r.pick(fields[1:])
	case "drill":
		r.drill(fields[1:])
	case "back":
		if f, err := r.s.Back(); err != nil {
			fmt.Println(err)
		} else {
			r.show(f)
		}
	case "sql":
		r.sql()
	case "explain":
		r.explain(fields[1:])
	case "csv":
		r.csv()
	case "pivot":
		r.pivot(fields[1:])
	case "stats":
		r.stats()
	case "profile":
		// A session always records (see Session.LastTrace), so this
		// works retroactively on whatever just ran — no flag needed.
		fmt.Print(r.s.LastProfile().Render())
	case "mode":
		if len(fields) != 2 {
			fmt.Println("usage: mode surprise|bellwether")
			return
		}
		if err := r.setMode(fields[1]); err != nil {
			fmt.Println(err)
			return
		}
		if f := r.s.Facets(); f != nil {
			r.show(f)
		}
	default:
		r.query(line)
	}
}

func (r *repl) query(q string) {
	nets, err := r.s.Query(q)
	if err != nil {
		fmt.Println(err)
		return
	}
	if len(nets) == 0 {
		fmt.Println("no interpretations — try different keywords")
		for kw, sugg := range r.s.Engine().SuggestKeywords(q, 3) {
			fmt.Printf("  %q matched nothing; did you mean %s?\n", kw, strings.Join(sugg, ", "))
		}
		return
	}
	fmt.Printf("%d interpretations:\n%s", len(nets), kdap.RenderStarNets(nets, 8))
	fmt.Println("use 'pick N' to explore one")
}

func (r *repl) pick(args []string) {
	if len(args) != 1 {
		fmt.Println("usage: pick N (after a query)")
		return
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Println("usage: pick N")
		return
	}
	f, err := r.s.Pick(n)
	if err != nil {
		fmt.Println(err)
		return
	}
	r.show(f)
}

func (r *repl) show(f *kdap.Facets) {
	fmt.Print(kdap.RenderFacets(f))
	fmt.Println("facet attributes are numbered top to bottom; 'drill N M' to zoom in")
}

func (r *repl) drill(args []string) {
	if len(args) != 2 || r.s.Facets() == nil {
		fmt.Println("usage: drill N M (after pick)")
		return
	}
	an, err1 := strconv.Atoi(args[0])
	in, err2 := strconv.Atoi(args[1])
	attrs := r.s.FlatAttrs()
	if err1 != nil || err2 != nil || an < 1 || an > len(attrs) {
		fmt.Printf("drill 1..%d M\n", len(attrs))
		return
	}
	a := attrs[an-1]
	if in < 1 || in > len(a.Instances) {
		fmt.Printf("attribute %s has instances 1..%d\n", a.Attr.Attr, len(a.Instances))
		return
	}
	inst := a.Instances[in-1]
	var f *kdap.Facets
	var err error
	if a.Numeric {
		f, err = r.s.DrillRange(a.Attr, a.Role, inst.Lo, inst.Hi)
	} else {
		f, err = r.s.Drill(a.Attr, a.Role, inst.Value)
	}
	if err != nil {
		fmt.Println(err)
		return
	}
	r.show(f)
}

func (r *repl) sql() {
	sn := r.s.Current()
	if sn == nil {
		fmt.Println("pick an interpretation first")
		return
	}
	e := r.s.Engine()
	fmt.Println(sn.SQL(e.Measure(), e.Agg(), e.Graph().FactTable()))
}

func (r *repl) explain(args []string) {
	nets := r.s.Interpretations()
	if len(args) != 1 || nets == nil {
		fmt.Println("usage: explain N (after a query)")
		return
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > len(nets) {
		fmt.Printf("explain 1..%d\n", len(nets))
		return
	}
	fmt.Print(nets[n-1].Explain())
}

func (r *repl) csv() {
	if r.s.Facets() == nil {
		fmt.Println("pick an interpretation first")
		return
	}
	if err := kdap.WriteFacetsCSV(os.Stdout, r.s.Facets()); err != nil {
		fmt.Println(err)
	}
}

// stats prints the session's cache counters: the answer caches (whole
// differentiate/explore results), the subspace rows cache (bounded by
// bytes of row ids) and the distribution memo (bounded by spaces).
func (r *repl) stats() {
	e := r.s.Engine()
	diff, expl, ok := e.AnswerCacheStats()
	if !ok {
		fmt.Println("answer cache disabled (-answer-cache-size 0)")
	} else {
		for _, p := range []struct {
			name string
			st   kdap.AnswerCacheStats
		}{{"differentiate", diff}, {"explore", expl}} {
			fmt.Printf("answer cache %-13s %d/%d entries, %d B, %d hits / %d misses (%.0f%% hit rate), %d evicted\n",
				p.name, p.st.Len, p.st.Cap, p.st.Bytes, p.st.Hits, p.st.Misses,
				100*p.st.HitRate(), p.st.Evictions)
		}
	}
	rc := e.RowsCacheStats()
	fmt.Printf("subspace rows cache         %d spaces, %d/%d B of row ids, %d hits / %d misses (%.0f%% hit rate), %d evicted\n",
		rc.Len, rc.Weight, rc.Cap, rc.Hits, rc.Misses, 100*rc.HitRate(), rc.Evictions)
	ds := e.DistributionStats()
	fmt.Printf("distributions               %d/%d spaces, %d evicted\n", ds.Len, ds.Cap, ds.Evictions)
}

func (r *repl) pivot(args []string) {
	if len(args) != 2 || r.s.Facets() == nil {
		fmt.Println("usage: pivot N M (after pick; N, M are facet attribute numbers)")
		return
	}
	attrs := r.s.FlatAttrs()
	pick := func(arg string) *kdap.AttrFacet {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 || n > len(attrs) {
			return nil
		}
		return attrs[n-1]
	}
	ra, ca := pick(args[0]), pick(args[1])
	if ra == nil || ca == nil || ra == ca {
		fmt.Printf("pivot needs two distinct attributes in 1..%d\n", len(attrs))
		return
	}
	if ra.Numeric || ca.Numeric {
		fmt.Println("pivot works on categorical attributes; pick non-numeric facets")
		return
	}
	pt, err := r.s.Pivot(ra, ca)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(pt)
}
