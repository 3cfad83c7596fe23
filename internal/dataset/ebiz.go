// Package dataset builds the two data warehouses the reproduction runs
// on: the EBiz e-commerce schema of the paper's Figure 2 (the running
// example, including its deliberate ambiguities) and a synthetic
// AdventureWorks-shaped pair (AW_ONLINE / AW_RESELLER) substituting for
// the SQL Server 2005 sample database used in §6. All generation is
// deterministic from a fixed seed. It also holds the warehouse
// manifest (Manifest) and Assemble, which build every other warehouse:
// CSV marts and warehouse directories.
package dataset

import (
	"fmt"

	"kdap/internal/fulltext"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/stats"
)

// Warehouse bundles a generated database with its schema graph and
// full-text index, ready for the KDAP engine.
type Warehouse struct {
	DB    *relation.Database
	Graph *schemagraph.Graph
	Index *fulltext.Index
}

// ebizLocation rows: City, State, Country.
var ebizLocations = [][3]string{
	{"Columbus", "Ohio", "United States"},
	{"Cleveland", "Ohio", "United States"},
	{"Cincinnati", "Ohio", "United States"},
	{"San Jose", "California", "United States"},
	{"San Francisco", "California", "United States"},
	{"San Antonio", "Texas", "United States"},
	{"Los Angeles", "California", "United States"},
	{"Seattle", "Washington", "United States"},
	{"Portland", "Oregon", "United States"},
	{"New York", "New York", "United States"},
	{"Chicago", "Illinois", "United States"},
	{"Austin", "Texas", "United States"},
	{"Toronto", "Ontario", "Canada"},
	{"Vancouver", "British Columbia", "Canada"},
}

var ebizHolidays = []string{
	"Columbus Day", "Christmas Day", "Thanksgiving Day", "New Year Day", "Independence Day",
}

// ebizProducts rows: product name, group, line, UNSPSC class, UNSPSC
// family, list price. The vocabulary reproduces the paper's introduction:
// "LCD" appears as a projector technology, a flat-panel monitor group, and
// an LCD-TV category, so the keyword "LCD" has genuine attribute-instance
// ambiguity.
var ebizProducts = []struct {
	name, group, line, class, family string
	price                            float64
}{
	{"PowerBeam 2000 (LCD)", "LCD Projectors", "Electronics", "Projectors", "Office Electronics", 899},
	{"PowerBeam 3000 (LCD)", "LCD Projectors", "Electronics", "Projectors", "Office Electronics", 1299},
	{"CineBright DLP", "DLP Projectors", "Electronics", "Projectors", "Office Electronics", 1099},
	{"ViewMax 19", "Flat Panel(LCD)", "Monitor", "Monitors", "Computer Equipment", 329},
	{"ViewMax 24", "Flat Panel(LCD)", "Monitor", "Monitors", "Computer Equipment", 449},
	{"TubeView 17", "CRT Monitors", "Monitor", "Monitors", "Computer Equipment", 159},
	{"CrystalVision 32", "LCD TVs", "Televisions", "Televisions", "Home Electronics", 799},
	{"CrystalVision 42", "LCD TVs", "Televisions", "Televisions", "Home Electronics", 1399},
	{"PlasmaStar 50", "Plasma TVs", "Televisions", "Televisions", "Home Electronics", 1999},
	{"RetroTube TV 27", "CRT TVs", "Televisions", "Televisions", "Home Electronics", 299},
	{"RecordMaster VCR", "VCR", "Video", "Video Equipment", "Home Electronics", 129},
	{"DiscPlayer DVD", "DVD Players", "Video", "Video Equipment", "Home Electronics", 179},
	{"OfficeSuite Pro", "Productivity Software", "Software", "Business Software", "Software", 249},
	{"PhotoStudio", "Graphics Software", "Software", "Business Software", "Software", 199},
	{"SoundWave Speakers", "Speakers", "Accessories", "Audio", "Home Electronics", 89},
	{"ClearCall Headset", "Headsets", "Accessories", "Audio", "Office Electronics", 59},
}

var ebizFirstNames = []string{
	"Alice", "Bob", "Carol", "David", "Emma", "Frank", "Grace", "Henry",
	"Jose", "Maria", "Nina", "Oscar",
}
var ebizLastNames = []string{
	"Smith", "Johnson", "Lee", "Garcia", "Chen", "Patel", "Brown", "Davis",
	"Columbus", "Jones", "Miller", "Wilson",
}

// EBizFactCount is the number of TRANSITEM rows EBiz generates.
const EBizFactCount = 4000

// EBiz builds the Figure 2 e-commerce warehouse at its default size.
func EBiz() *Warehouse { return EBizSized(EBizFactCount) }

// EBizSized builds the Figure 2 e-commerce warehouse. The schema reproduces
// every structural feature the paper leans on: the Time dimension split
// into DATE and HOLIDAY tables; the LOC table shared by the Store and
// Customer dimensions; the ACCOUNT table joining the fact header on both
// BuyerKey and SellerKey (three join paths from LOC to the fact table);
// the Product dimension with two hierarchies (UNSPSC and Line/Group)
// meeting at PRODUCT; and a TRANS/TRANSITEM fact complex whose grain is
// the transaction item. factCount sets the TRANSITEM row count, allowing
// scaling benchmarks over the same schema.
func EBizSized(factCount int) *Warehouse {
	db := relation.NewDatabase("EBiz")

	holiday := db.MustCreateTable(relation.MustSchema("HOLIDAY", []relation.Column{
		{Name: "HolidayKey", Kind: relation.KindInt},
		{Name: "Event", Kind: relation.KindString, FullText: true},
	}, "HolidayKey", nil))

	date := db.MustCreateTable(relation.MustSchema("DATE", []relation.Column{
		{Name: "DateKey", Kind: relation.KindInt},
		{Name: "DateStr", Kind: relation.KindString, FullText: true},
		{Name: "Week", Kind: relation.KindString},
		{Name: "Month", Kind: relation.KindString, FullText: true},
		{Name: "Quarter", Kind: relation.KindString},
		{Name: "Year", Kind: relation.KindInt},
		{Name: "HolidayKey", Kind: relation.KindInt},
	}, "DateKey", []relation.ForeignKey{
		{Column: "HolidayKey", RefTable: "HOLIDAY", RefColumn: "HolidayKey"},
	}))

	loc := db.MustCreateTable(relation.MustSchema("LOC", []relation.Column{
		{Name: "LocKey", Kind: relation.KindInt},
		{Name: "City", Kind: relation.KindString, FullText: true},
		{Name: "State", Kind: relation.KindString, FullText: true},
		{Name: "Country", Kind: relation.KindString, FullText: true},
	}, "LocKey", nil))

	store := db.MustCreateTable(relation.MustSchema("STORE", []relation.Column{
		{Name: "StoreKey", Kind: relation.KindInt},
		{Name: "StoreName", Kind: relation.KindString, FullText: true},
		{Name: "LocKey", Kind: relation.KindInt},
	}, "StoreKey", []relation.ForeignKey{
		{Column: "LocKey", RefTable: "LOC", RefColumn: "LocKey"},
	}))

	customer := db.MustCreateTable(relation.MustSchema("CUSTOMER", []relation.Column{
		{Name: "CustKey", Kind: relation.KindInt},
		{Name: "FirstName", Kind: relation.KindString, FullText: true},
		{Name: "LastName", Kind: relation.KindString, FullText: true},
		{Name: "Age", Kind: relation.KindInt},
		{Name: "Income", Kind: relation.KindFloat},
		{Name: "LocKey", Kind: relation.KindInt},
	}, "CustKey", []relation.ForeignKey{
		{Column: "LocKey", RefTable: "LOC", RefColumn: "LocKey"},
	}))

	account := db.MustCreateTable(relation.MustSchema("ACCOUNT", []relation.Column{
		{Name: "AccountKey", Kind: relation.KindInt},
		{Name: "CustKey", Kind: relation.KindInt},
		{Name: "AccountType", Kind: relation.KindString, FullText: true},
	}, "AccountKey", []relation.ForeignKey{
		{Column: "CustKey", RefTable: "CUSTOMER", RefColumn: "CustKey"},
	}))

	unspsc := db.MustCreateTable(relation.MustSchema("UNSPSC", []relation.Column{
		{Name: "UnspscKey", Kind: relation.KindInt},
		{Name: "ClassTitle", Kind: relation.KindString, FullText: true},
		{Name: "FamilyTitle", Kind: relation.KindString, FullText: true},
	}, "UnspscKey", nil))

	pline := db.MustCreateTable(relation.MustSchema("PLINE", []relation.Column{
		{Name: "LineKey", Kind: relation.KindInt},
		{Name: "LineName", Kind: relation.KindString, FullText: true},
	}, "LineKey", nil))

	pgroup := db.MustCreateTable(relation.MustSchema("PGROUP", []relation.Column{
		{Name: "PGroupKey", Kind: relation.KindInt},
		{Name: "GroupName", Kind: relation.KindString, FullText: true},
		{Name: "LineKey", Kind: relation.KindInt},
	}, "PGroupKey", []relation.ForeignKey{
		{Column: "LineKey", RefTable: "PLINE", RefColumn: "LineKey"},
	}))

	product := db.MustCreateTable(relation.MustSchema("PRODUCT", []relation.Column{
		{Name: "ProductKey", Kind: relation.KindInt},
		{Name: "ProductName", Kind: relation.KindString, FullText: true},
		{Name: "ListPrice", Kind: relation.KindFloat},
		{Name: "UnspscKey", Kind: relation.KindInt},
		{Name: "PGroupKey", Kind: relation.KindInt},
	}, "ProductKey", []relation.ForeignKey{
		{Column: "UnspscKey", RefTable: "UNSPSC", RefColumn: "UnspscKey"},
		{Column: "PGroupKey", RefTable: "PGROUP", RefColumn: "PGroupKey"},
	}))

	trans := db.MustCreateTable(relation.MustSchema("TRANS", []relation.Column{
		{Name: "TransKey", Kind: relation.KindInt},
		{Name: "DateKey", Kind: relation.KindInt},
		{Name: "StoreKey", Kind: relation.KindInt},
		{Name: "BuyerKey", Kind: relation.KindInt},
		{Name: "SellerKey", Kind: relation.KindInt},
	}, "TransKey", []relation.ForeignKey{
		{Column: "DateKey", RefTable: "DATE", RefColumn: "DateKey"},
		{Column: "StoreKey", RefTable: "STORE", RefColumn: "StoreKey"},
		{Column: "BuyerKey", RefTable: "ACCOUNT", RefColumn: "AccountKey"},
		{Column: "SellerKey", RefTable: "ACCOUNT", RefColumn: "AccountKey"},
	}))

	transitem := db.MustCreateTable(relation.MustSchema("TRANSITEM", []relation.Column{
		{Name: "ItemKey", Kind: relation.KindInt},
		{Name: "TransKey", Kind: relation.KindInt},
		{Name: "ProductKey", Kind: relation.KindInt},
		{Name: "Quantity", Kind: relation.KindInt},
		{Name: "UnitPrice", Kind: relation.KindFloat},
	}, "ItemKey", []relation.ForeignKey{
		{Column: "TransKey", RefTable: "TRANS", RefColumn: "TransKey"},
		{Column: "ProductKey", RefTable: "PRODUCT", RefColumn: "ProductKey"},
	}))

	// ---- Populate dimensions ----
	for i, ev := range ebizHolidays {
		holiday.MustAppend(relation.Int(int64(i+1)), relation.String(ev))
	}
	// HolidayKey 0 means "no holiday"; add a sentinel row so strict FK
	// validation passes.
	holiday.MustAppend(relation.Int(0), relation.String("No Holiday"))

	months := []string{"January", "February", "March", "April", "May", "June",
		"July", "August", "September", "October", "November", "December"}
	dateKey := int64(1)
	for year := 2005; year <= 2006; year++ {
		for m := 0; m < 12; m++ {
			for d := 1; d <= 28; d += 7 { // one date per week is enough grain
				hk := int64(0)
				// Columbus Day: second week of October.
				if m == 9 && d == 8 {
					hk = 1
				}
				if m == 11 && d == 22 {
					hk = 2
				}
				quarter := fmt.Sprintf("Q%d %d", m/3+1, year)
				week := fmt.Sprintf("W%02d %d", m*4+d/7+1, year)
				date.MustAppend(
					relation.Int(dateKey),
					relation.String(fmt.Sprintf("%d %s %d", d, months[m], year)),
					relation.String(week),
					relation.String(fmt.Sprintf("%s %d", months[m], year)),
					relation.String(quarter),
					relation.Int(int64(year)),
					relation.Int(hk),
				)
				dateKey++
			}
		}
	}
	nDates := dateKey - 1

	for i, l := range ebizLocations {
		loc.MustAppend(relation.Int(int64(i+1)), relation.String(l[0]), relation.String(l[1]), relation.String(l[2]))
	}

	rng := stats.NewRNG(20070612) // SIGMOD'07 conference date
	// Every city gets at least one store (round-robin), extras random.
	nStores := 20
	for i := 1; i <= nStores; i++ {
		lk := int64((i-1)%len(ebizLocations) + 1)
		if i > len(ebizLocations) {
			lk = int64(rng.Intn(len(ebizLocations)) + 1)
		}
		store.MustAppend(relation.Int(int64(i)),
			relation.String(fmt.Sprintf("EBiz Outlet #%d", i)), relation.Int(lk))
	}

	nCustomers := 200
	for i := 1; i <= nCustomers; i++ {
		fn := ebizFirstNames[rng.Intn(len(ebizFirstNames))]
		ln := ebizLastNames[rng.Intn(len(ebizLastNames))]
		age := int64(18 + rng.Intn(60))
		// Incomes band to 500s so numeric facets read cleanly.
		income := float64(int((20000+rng.Float64()*130000)/500)) * 500
		lk := int64(rng.Intn(len(ebizLocations)) + 1)
		customer.MustAppend(relation.Int(int64(i)), relation.String(fn), relation.String(ln),
			relation.Int(age), relation.Float(income), relation.Int(lk))
	}
	// Every customer holds one account; some hold a second (seller) one.
	accountKey := int64(1)
	accountsOf := make(map[int64][]int64)
	for i := 1; i <= nCustomers; i++ {
		typ := "Personal"
		if rng.Float64() < 0.2 {
			typ = "Business"
		}
		account.MustAppend(relation.Int(accountKey), relation.Int(int64(i)), relation.String(typ))
		accountsOf[int64(i)] = append(accountsOf[int64(i)], accountKey)
		accountKey++
	}
	nAccounts := accountKey - 1

	// UNSPSC classes/families and product lines/groups from the product list.
	unspscKeys := map[string]int64{}
	lineKeys := map[string]int64{}
	groupKeys := map[string]int64{}
	for _, p := range ebizProducts {
		ck := p.class + "|" + p.family
		if _, ok := unspscKeys[ck]; !ok {
			k := int64(len(unspscKeys) + 1)
			unspscKeys[ck] = k
			unspsc.MustAppend(relation.Int(k), relation.String(p.class), relation.String(p.family))
		}
		if _, ok := lineKeys[p.line]; !ok {
			k := int64(len(lineKeys) + 1)
			lineKeys[p.line] = k
			pline.MustAppend(relation.Int(k), relation.String(p.line))
		}
		if _, ok := groupKeys[p.group]; !ok {
			k := int64(len(groupKeys) + 1)
			groupKeys[p.group] = k
			pgroup.MustAppend(relation.Int(k), relation.String(p.group), relation.Int(lineKeys[p.line]))
		}
	}
	for i, p := range ebizProducts {
		product.MustAppend(relation.Int(int64(i+1)), relation.String(p.name),
			relation.Float(p.price), relation.Int(unspscKeys[p.class+"|"+p.family]),
			relation.Int(groupKeys[p.group]))
	}

	// ---- Facts ----
	// Transactions skew: stores in California sell disproportionately many
	// LCD products, Columbus stores sell more televisions — giving the
	// facet layer real surprises to find.
	nTrans := factCount / 2
	for tk := int64(1); tk <= int64(nTrans); tk++ {
		dk := int64(rng.Intn(int(nDates)) + 1)
		sk := int64(rng.Intn(nStores) + 1)
		buyer := int64(rng.Intn(int(nAccounts)) + 1)
		seller := int64(rng.Intn(int(nAccounts)) + 1)
		trans.MustAppend(relation.Int(tk), relation.Int(dk), relation.Int(sk),
			relation.Int(buyer), relation.Int(seller))
	}
	itemKey := int64(1)
	for tk := int64(1); itemKey <= int64(factCount); tk = tk%int64(nTrans) + 1 {
		items := 1 + rng.Intn(3)
		storeLoc := loc.Value(int(store.Value(int(trans.Value(int(tk-1), "StoreKey").IntVal())-1, "LocKey").IntVal())-1, "City").Str()
		for j := 0; j < items && itemKey <= int64(factCount); j++ {
			pi := rng.Intn(len(ebizProducts))
			// Skews: LCD products over-sell in California cities,
			// televisions over-sell in Columbus.
			switch storeLoc {
			case "San Jose", "San Francisco", "Los Angeles":
				if rng.Float64() < 0.75 {
					pi = rng.Intn(5) // LCD projectors and panels
				}
			case "Columbus":
				if rng.Float64() < 0.75 {
					pi = 6 + rng.Intn(4) // televisions
				}
			}
			p := ebizProducts[pi]
			qty := int64(1 + rng.Intn(4))
			price := p.price * (0.9 + 0.2*rng.Float64())
			transitem.MustAppend(relation.Int(itemKey), relation.Int(tk),
				relation.Int(int64(pi+1)), relation.Int(qty), relation.Float(price))
			itemKey++
		}
	}

	g := schemagraph.New(db, "TRANSITEM")
	g.AddFactExtension("TRANS")
	mustAdd := func(d *schemagraph.Dimension) {
		if err := g.AddDimension(d); err != nil {
			panic(err)
		}
	}
	mustAdd(&schemagraph.Dimension{
		Name:   "Time",
		Tables: []string{"DATE", "HOLIDAY"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Calendar",
			Levels: []schemagraph.AttrRef{
				{Table: "DATE", Attr: "Year"},
				{Table: "DATE", Attr: "Quarter"},
				{Table: "DATE", Attr: "Month"},
				{Table: "DATE", Attr: "Week"},
				{Table: "DATE", Attr: "DateStr"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DATE", Attr: "Year"},
			{Table: "DATE", Attr: "Quarter"},
			{Table: "DATE", Attr: "Month"},
			{Table: "HOLIDAY", Attr: "Event"},
		},
	})
	mustAdd(&schemagraph.Dimension{
		Name:   "Store",
		Tables: []string{"STORE", "LOC"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Geography",
			Levels: []schemagraph.AttrRef{
				{Table: "LOC", Attr: "Country"},
				{Table: "LOC", Attr: "State"},
				{Table: "LOC", Attr: "City"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "LOC", Attr: "City"},
			{Table: "LOC", Attr: "State"},
			{Table: "LOC", Attr: "Country"},
			{Table: "STORE", Attr: "StoreName"},
		},
	})
	mustAdd(&schemagraph.Dimension{
		Name:   "Customer",
		Tables: []string{"CUSTOMER", "ACCOUNT", "LOC"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Geography",
			Levels: []schemagraph.AttrRef{
				{Table: "LOC", Attr: "Country"},
				{Table: "LOC", Attr: "State"},
				{Table: "LOC", Attr: "City"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "CUSTOMER", Attr: "Age"},
			{Table: "CUSTOMER", Attr: "Income"},
			{Table: "LOC", Attr: "City"},
			{Table: "ACCOUNT", Attr: "AccountType"},
		},
	})
	mustAdd(&schemagraph.Dimension{
		Name:   "Product",
		Tables: []string{"PRODUCT", "UNSPSC", "PGROUP", "PLINE"},
		Hierarchies: []schemagraph.Hierarchy{
			{
				Name: "UNSPSC",
				Levels: []schemagraph.AttrRef{
					{Table: "UNSPSC", Attr: "FamilyTitle"},
					{Table: "UNSPSC", Attr: "ClassTitle"},
					{Table: "PRODUCT", Attr: "ProductName"},
				},
			},
			{
				Name: "ProductLine",
				Levels: []schemagraph.AttrRef{
					{Table: "PLINE", Attr: "LineName"},
					{Table: "PGROUP", Attr: "GroupName"},
					{Table: "PRODUCT", Attr: "ProductName"},
				},
			},
		},
		GroupBy: []schemagraph.AttrRef{
			{Table: "PGROUP", Attr: "GroupName"},
			{Table: "UNSPSC", Attr: "FamilyTitle"},
			{Table: "PRODUCT", Attr: "ProductName"},
			{Table: "PRODUCT", Attr: "ListPrice"},
		},
	})
	if err := g.Build(); err != nil {
		panic(err)
	}
	g.LabelEdge("TRANS", "BuyerKey", "Buyer", "Customer")
	g.LabelEdge("TRANS", "SellerKey", "Seller", "Customer")
	return NewWarehouse(db, g)
}
