package dataset

import (
	"fmt"
	"strings"
	"sync"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/stats"
)

// AWOnlineFactCount is the number of FactInternetSales rows, matching the
// paper's "more than 60,000 fact records".
const AWOnlineFactCount = 60398

var (
	awOnlineOnce sync.Once
	awOnlineWH   *Warehouse
)

// AWOnline returns the synthetic AW_ONLINE warehouse (5 dimensions, 10
// tables, 3 hierarchical dimensions, >60k facts, >20 full-text attribute
// domains — the shape reported in §6.1). The warehouse is built once and
// shared; it is read-only after construction.
func AWOnline() *Warehouse {
	awOnlineOnce.Do(func() { awOnlineWH = buildAWOnline() })
	return awOnlineWH
}

// ftCol returns a full-text string column definition.
func ftCol(name string) relation.Column {
	return relation.Column{Name: name, Kind: relation.KindString, FullText: true}
}

// sCol returns a plain string column definition.
func sCol(name string) relation.Column {
	return relation.Column{Name: name, Kind: relation.KindString}
}

// iCol returns an int column definition.
func iCol(name string) relation.Column {
	return relation.Column{Name: name, Kind: relation.KindInt}
}

// fCol returns a float column definition.
func fCol(name string) relation.Column {
	return relation.Column{Name: name, Kind: relation.KindFloat}
}

// fk builds a single-column foreign key.
func fk(col, refTable, refCol string) relation.ForeignKey {
	return relation.ForeignKey{Column: col, RefTable: refTable, RefColumn: refCol}
}

// awShared holds the dimension tables and key maps common to both
// AdventureWorks databases.
type awShared struct {
	territoryKeys map[string]int64 // region -> key
	geoCount      int64
	geoCountry    []string // geography row index -> country name
	subcatKeys    map[string]int64
	catKeys       map[string]int64
	productCount  int64
	dateCount     int64
}

// buildAWDimCommon creates the territory, geography, product (category/
// subcategory/product), date, promotion, and currency tables in db and
// populates them. withModel adds the DimProductModel snowflake level used
// by AW_RESELLER.
func buildAWDimCommon(db *relation.Database, withModel bool) *awShared {
	sh := &awShared{
		territoryKeys: map[string]int64{},
		subcatKeys:    map[string]int64{},
		catKeys:       map[string]int64{},
	}

	territory := db.MustCreateTable(relation.MustSchema("DimSalesTerritory", []relation.Column{
		iCol("TerritoryKey"), ftCol("Region"), ftCol("Country"), ftCol("TerritoryGroup"),
	}, "TerritoryKey", nil))
	for i, t := range awTerritory {
		territory.MustAppend(relation.Int(int64(i+1)), relation.String(t[0]), relation.String(t[1]), relation.String(t[2]))
		sh.territoryKeys[t[0]] = int64(i + 1)
	}

	geo := db.MustCreateTable(relation.MustSchema("DimGeography", []relation.Column{
		iCol("GeographyKey"), ftCol("City"), ftCol("StateProvinceName"),
		ftCol("CountryRegionName"), ftCol("CountryRegionCode"), iCol("TerritoryKey"),
	}, "GeographyKey", []relation.ForeignKey{
		fk("TerritoryKey", "DimSalesTerritory", "TerritoryKey"),
	}))
	for i, g := range awGeo {
		geo.MustAppend(relation.Int(int64(i+1)), relation.String(g[0]), relation.String(g[1]),
			relation.String(g[2]), relation.String(g[3]), relation.Int(sh.territoryKeys[g[4]]))
		sh.geoCountry = append(sh.geoCountry, g[2])
	}
	sh.geoCount = int64(len(awGeo))

	cat := db.MustCreateTable(relation.MustSchema("DimProductCategory", []relation.Column{
		iCol("CategoryKey"), ftCol("CategoryName"),
	}, "CategoryKey", nil))
	for i, c := range awCategories {
		cat.MustAppend(relation.Int(int64(i+1)), relation.String(c))
		sh.catKeys[c] = int64(i + 1)
	}

	subcat := db.MustCreateTable(relation.MustSchema("DimProductSubcategory", []relation.Column{
		iCol("SubcategoryKey"), ftCol("SubcategoryName"), iCol("CategoryKey"),
	}, "SubcategoryKey", []relation.ForeignKey{
		fk("CategoryKey", "DimProductCategory", "CategoryKey"),
	}))
	for i, sc := range awSubcats {
		subcat.MustAppend(relation.Int(int64(i+1)), relation.String(sc[0]), relation.Int(sh.catKeys[sc[1]]))
		sh.subcatKeys[sc[0]] = int64(i + 1)
	}

	var modelKeys map[string]int64
	if withModel {
		model := db.MustCreateTable(relation.MustSchema("DimProductModel", []relation.Column{
			iCol("ModelKey"), ftCol("ModelName"), ftCol("ProductLine"),
		}, "ModelKey", nil))
		modelKeys = map[string]int64{}
		for _, p := range awProducts {
			if _, ok := modelKeys[p.model]; ok {
				continue
			}
			k := int64(len(modelKeys) + 1)
			modelKeys[p.model] = k
			line := "Standard"
			switch p.subcat {
			case "Mountain Bikes", "Mountain Frames":
				line = "Mountain"
			case "Road Bikes", "Road Frames":
				line = "Road"
			case "Touring Bikes", "Touring Frames":
				line = "Touring"
			}
			model.MustAppend(relation.Int(k), relation.String(p.model), relation.String(line))
		}
	}

	prodCols := []relation.Column{
		iCol("ProductKey"), ftCol("EnglishProductName"), ftCol("ModelName"),
		ftCol("Color"), ftCol("EnglishDescription"), fCol("DealerPrice"),
		iCol("SubcategoryKey"),
	}
	prodFKs := []relation.ForeignKey{
		fk("SubcategoryKey", "DimProductSubcategory", "SubcategoryKey"),
	}
	if withModel {
		prodCols = append(prodCols, iCol("ModelKey"))
		prodFKs = append(prodFKs, fk("ModelKey", "DimProductModel", "ModelKey"))
	}
	prod := db.MustCreateTable(relation.MustSchema("DimProduct", prodCols, "ProductKey", prodFKs))
	for i, p := range awProducts {
		row := []relation.Value{
			relation.Int(int64(i + 1)), relation.String(p.name), relation.String(p.model),
			relation.String(p.color), relation.String(p.description),
			relation.Float(p.dealerPrice), relation.Int(sh.subcatKeys[p.subcat]),
		}
		if withModel {
			row = append(row, relation.Int(modelKeys[p.model]))
		}
		if _, err := prod.Append(row); err != nil {
			panic(err)
		}
	}
	sh.productCount = int64(len(awProducts))

	date := db.MustCreateTable(relation.MustSchema("DimDate", []relation.Column{
		iCol("DateKey"), ftCol("FullDateLabel"), ftCol("DayName"),
		ftCol("MonthName"), sCol("CalendarQuarter"), ftCol("CalendarYear"),
	}, "DateKey", nil))
	dk := int64(1)
	for year := 2000; year <= 2004; year++ {
		for m := 0; m < 12; m++ {
			for d := 1; d <= 28; d++ {
				date.MustAppend(
					relation.Int(dk),
					relation.String(fmt.Sprintf("%s %d, %d", awMonthNames[m], d, year)),
					relation.String(awDayNames[int(dk)%7]),
					relation.String(awMonthNames[m]),
					relation.String(fmt.Sprintf("Q%d %d", m/3+1, year)),
					relation.String(fmt.Sprintf("%d", year)),
				)
				dk++
			}
		}
	}
	sh.dateCount = dk - 1

	promo := db.MustCreateTable(relation.MustSchema("DimPromotion", []relation.Column{
		iCol("PromotionKey"), ftCol("EnglishPromotionName"), ftCol("EnglishPromotionType"),
	}, "PromotionKey", nil))
	for i, p := range awPromotions {
		promo.MustAppend(relation.Int(int64(i+1)), relation.String(p[0]), relation.String(p[1]))
	}

	currency := db.MustCreateTable(relation.MustSchema("DimCurrency", []relation.Column{
		iCol("CurrencyKey"), ftCol("CurrencyName"),
	}, "CurrencyKey", nil))
	for i, c := range awCurrencies {
		currency.MustAppend(relation.Int(int64(i+1)), relation.String(c))
	}

	return sh
}

// currencyForCountry maps a customer's country to the transaction
// currency key.
func currencyForCountry(country string) int64 {
	switch country {
	case "Australia":
		return 2
	case "Canada":
		return 3
	case "Germany", "France":
		return 4
	case "United Kingdom":
		return 5
	default:
		return 1 // US Dollar
	}
}

// pickProduct chooses a product index with country-specific preferences:
// US buyers favor bikes, France favors clothing, Australia favors
// accessories, Germany favors components. The skew gives the explore
// phase genuine surprises and the numeric attributes country-dependent
// distributions.
func pickProduct(rng *stats.RNG, country string) int {
	var subcatBias string
	switch country {
	case "France":
		subcatBias = "Clothing"
	case "Australia":
		subcatBias = "Accessories"
	case "Germany":
		subcatBias = "Components"
	default:
		subcatBias = "Bikes"
	}
	for tries := 0; tries < 4; tries++ {
		i := rng.Intn(len(awProducts))
		cat := ""
		for _, sc := range awSubcats {
			if sc[0] == awProducts[i].subcat {
				cat = sc[1]
				break
			}
		}
		if cat == subcatBias || rng.Float64() < 0.45 {
			return i
		}
	}
	return rng.Intn(len(awProducts))
}

// promotionFor returns a promotion key, usually "No Discount" but biased
// toward the product-specific promotions when they apply.
func promotionFor(rng *stats.RNG, p awProduct, month int) int64 {
	if rng.Float64() < 0.75 {
		return 1 // No Discount
	}
	switch {
	case p.subcat == "Helmets":
		return 4 // Sport Helmet Discount-2002
	case p.subcat == "Pedals":
		return 8 // Half-Price Pedal Sale
	case p.model == "Mountain Tire" && (month == 10 || month == 11):
		return 6 // Mountain Tire Sale (November/December heavy)
	case p.model == "Mountain Tire":
		return 6
	case p.model == "Road-650":
		return 5 // Road-650 Overstock
	case p.model == "Mountain-100":
		return 3 // Mountain-100 Clearance Sale
	case p.model == "Touring-3000":
		return 7 // Touring-3000 Promotion
	case p.model == "LL Road Frame":
		return 9
	default:
		return int64(1 + rng.Intn(2)) // No Discount / Volume Discount
	}
}

// buildAWOnlineCustomers creates and populates DimCustomer with
// nCustomers generated rows plus the pinned Fernando row (key
// nCustomers+1), returning each customer's geography row index.
func buildAWOnlineCustomers(db *relation.Database, rng *stats.RNG, sh *awShared, nCustomers int) []int {
	customer := db.MustCreateTable(relation.MustSchema("DimCustomer", []relation.Column{
		iCol("CustomerKey"), ftCol("FirstName"), ftCol("LastName"),
		ftCol("AddressLine1"), ftCol("EmailAddress"), ftCol("Phone"),
		ftCol("Education"), ftCol("Occupation"), fCol("YearlyIncome"),
		iCol("GeographyKey"),
	}, "CustomerKey", []relation.ForeignKey{
		fk("GeographyKey", "DimGeography", "GeographyKey"),
	}))

	custGeo := make([]int, nCustomers+1)
	for ck := 1; ck <= nCustomers; ck++ {
		fn := awFirstNames[rng.Intn(len(awFirstNames))]
		ln := awLastNames[rng.Intn(len(awLastNames))]
		addr := awStreets[rng.Intn(len(awStreets))]
		email := fmt.Sprintf("%s%d@adventure-works.com", strings.ToLower(fn), ck%100)
		phone := fmt.Sprintf("1%09d", 245550000+ck)
		edu := awEducations[rng.Intn(len(awEducations))]
		occ := awOccupations[rng.Intn(len(awOccupations))]
		gi := rng.Intn(int(sh.geoCount))
		custGeo[ck] = gi
		income := awIncome(rng, occ, edu, sh.geoCountry[gi])
		customer.MustAppend(relation.Int(int64(ck)), relation.String(fn), relation.String(ln),
			relation.String(addr), relation.String(email), relation.String(phone),
			relation.String(edu), relation.String(occ), relation.Float(income),
			relation.Int(int64(gi+1)))
	}
	// Pin the workload's named customers: fernando35@adventure-works.com
	// and a first name "Sydney" are guaranteed by construction (Fernando
	// and Sydney are in the name pool; make one of each explicit).
	customer.MustAppend(relation.Int(int64(nCustomers+1)), relation.String("Fernando"), relation.String("Ruiz"),
		relation.String("2487 Riverside Drive"), relation.String("fernando35@adventure-works.com"),
		relation.String("1245550139"), relation.String("Bachelors"), relation.String("Professional"),
		relation.Float(70000), relation.Int(1))
	custGeo[0] = 0 // unused slot guard
	return custGeo
}

// awOnlineFactSchema returns the FactInternetSales schema.
func awOnlineFactSchema() *relation.Schema {
	return relation.MustSchema("FactInternetSales", []relation.Column{
		iCol("SalesKey"), iCol("ProductKey"), iCol("CustomerKey"),
		iCol("OrderDateKey"), iCol("PromotionKey"), iCol("CurrencyKey"),
		iCol("OrderQuantity"), fCol("UnitPrice"),
	}, "SalesKey", []relation.ForeignKey{
		fk("ProductKey", "DimProduct", "ProductKey"),
		fk("CustomerKey", "DimCustomer", "CustomerKey"),
		fk("OrderDateKey", "DimDate", "DateKey"),
		fk("PromotionKey", "DimPromotion", "PromotionKey"),
		fk("CurrencyKey", "DimCurrency", "CurrencyKey"),
	})
}

// genAWOnlineFacts streams n FactInternetSales rows, in SalesKey order,
// into emit. The sequence is a pure function of (rng seed, n,
// clusteredDates, dimensions), so resident and disk-backed builds of
// the same scale hold byte-identical data. With clusteredDates the
// order date advances with the sales key (facts arrive in time order,
// the realistic warehouse-ingest pattern), which is what gives date
// and key zone maps their pruning power at scale.
func genAWOnlineFacts(rng *stats.RNG, sh *awShared, custGeo []int, nCustomers, n int, clusteredDates bool, emit func(vals []relation.Value) error) error {
	dateCount := int(sh.dateCount)
	for sk := int64(1); sk <= int64(n); sk++ {
		ck := 1 + rng.Intn(nCustomers)
		country := sh.geoCountry[custGeo[ck]]
		pi := pickProduct(rng, country)
		p := awProducts[pi]
		var dk int64
		if clusteredDates {
			base := int((sk - 1) * int64(dateCount) / int64(n))
			jitter := rng.Intn(57) - 28
			d := base + jitter
			if d < 0 {
				d = 0
			}
			if d >= dateCount {
				d = dateCount - 1
			}
			dk = int64(d + 1)
		} else {
			dk = int64(1 + rng.Intn(dateCount))
		}
		month := int((dk - 1) / 28 % 12)
		promoKey := promotionFor(rng, p, month)
		qty := int64(1)
		if p.dealerPrice < 100 {
			qty = int64(1 + rng.Intn(4))
		}
		price := p.dealerPrice * (1.25 + 0.25*rng.Float64())
		err := emit([]relation.Value{
			relation.Int(sk), relation.Int(int64(pi + 1)), relation.Int(int64(ck)),
			relation.Int(dk), relation.Int(promoKey), relation.Int(currencyForCountry(country)),
			relation.Int(qty), relation.Float(price),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// awOnlineGraph builds the AW_ONLINE schema graph over db.
func awOnlineGraph(db *relation.Database) *schemagraph.Graph {
	g := schemagraph.New(db, "FactInternetSales")
	mustAddDim := func(d *schemagraph.Dimension) {
		if err := g.AddDimension(d); err != nil {
			panic(err)
		}
	}
	mustAddDim(&schemagraph.Dimension{
		Name:   "Product",
		Tables: []string{"DimProduct", "DimProductSubcategory", "DimProductCategory"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Category",
			Levels: []schemagraph.AttrRef{
				{Table: "DimProductCategory", Attr: "CategoryName"},
				{Table: "DimProductSubcategory", Attr: "SubcategoryName"},
				{Table: "DimProduct", Attr: "EnglishProductName"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimProductSubcategory", Attr: "SubcategoryName"},
			{Table: "DimProductCategory", Attr: "CategoryName"},
			{Table: "DimProduct", Attr: "ModelName"},
			{Table: "DimProduct", Attr: "Color"},
			{Table: "DimProduct", Attr: "DealerPrice"},
		},
	})
	mustAddDim(&schemagraph.Dimension{
		Name:   "Customer",
		Tables: []string{"DimCustomer", "DimGeography", "DimSalesTerritory"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Geography",
			Levels: []schemagraph.AttrRef{
				{Table: "DimSalesTerritory", Attr: "TerritoryGroup"},
				{Table: "DimGeography", Attr: "CountryRegionName"},
				{Table: "DimGeography", Attr: "StateProvinceName"},
				{Table: "DimGeography", Attr: "City"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimGeography", Attr: "City"},
			{Table: "DimGeography", Attr: "StateProvinceName"},
			{Table: "DimGeography", Attr: "CountryRegionName"},
			{Table: "DimCustomer", Attr: "Occupation"},
			{Table: "DimCustomer", Attr: "Education"},
			{Table: "DimCustomer", Attr: "YearlyIncome"},
		},
	})
	mustAddDim(&schemagraph.Dimension{
		Name:   "Date",
		Tables: []string{"DimDate"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Calendar",
			Levels: []schemagraph.AttrRef{
				{Table: "DimDate", Attr: "CalendarYear"},
				{Table: "DimDate", Attr: "CalendarQuarter"},
				{Table: "DimDate", Attr: "MonthName"},
				{Table: "DimDate", Attr: "FullDateLabel"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimDate", Attr: "CalendarYear"},
			{Table: "DimDate", Attr: "MonthName"},
			{Table: "DimDate", Attr: "DayName"},
		},
	})
	mustAddDim(&schemagraph.Dimension{
		Name:   "Promotion",
		Tables: []string{"DimPromotion"},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimPromotion", Attr: "EnglishPromotionName"},
			{Table: "DimPromotion", Attr: "EnglishPromotionType"},
		},
	})
	mustAddDim(&schemagraph.Dimension{
		Name:   "Currency",
		Tables: []string{"DimCurrency"},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimCurrency", Attr: "CurrencyName"},
		},
	})
	if err := g.Build(); err != nil {
		panic(err)
	}
	return g
}

func buildAWOnline() *Warehouse {
	db := relation.NewDatabase("AW_ONLINE")
	sh := buildAWDimCommon(db, false)
	rng := stats.NewRNG(2007)

	const nCustomers = 2500
	custGeo := buildAWOnlineCustomers(db, rng, sh, nCustomers)

	fact := db.MustCreateTable(awOnlineFactSchema())
	ba := relation.NewBatchAppender(fact)
	err := genAWOnlineFacts(rng, sh, custGeo, nCustomers, AWOnlineFactCount, false, ba.Append)
	if err == nil {
		err = ba.Flush()
	}
	if err != nil {
		panic(err)
	}

	g := awOnlineGraph(db)
	return NewWarehouse(db, g)
}

// awIncome draws a yearly income from an occupation/education base with a
// country multiplier and noise; the country dependence is what makes the
// Figure 5 income-vs-geography correlations non-trivial.
func awIncome(rng *stats.RNG, occupation, education, country string) float64 {
	base := 40000.0
	switch occupation {
	case "Professional":
		base = 80000
	case "Management":
		base = 95000
	case "Skilled Manual":
		base = 55000
	case "Clerical":
		base = 38000
	case "Manual":
		base = 25000
	}
	switch education {
	case "Graduate Degree":
		base *= 1.3
	case "Bachelors":
		base *= 1.15
	case "Partial High School":
		base *= 0.8
	}
	switch country {
	case "United States":
		base *= 1.15
	case "Germany", "United Kingdom":
		base *= 1.05
	case "France":
		base *= 0.95
	case "Australia":
		base *= 1.0
	case "Canada":
		base *= 0.98
	}
	income := base * (0.7 + 0.6*rng.Float64())
	// The original dataset bands YearlyIncome in 10,000 steps.
	banded := float64(int(income/10000)) * 10000
	if banded < 10000 {
		banded = 10000
	}
	return banded
}
