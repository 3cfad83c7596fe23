package dataset

import (
	"fmt"
	"sync"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/stats"
)

// AWResellerFactCount is the number of FactResellerSales rows.
const AWResellerFactCount = 60855

var (
	awResellerOnce sync.Once
	awResellerWH   *Warehouse
)

// AWReseller returns the synthetic AW_RESELLER warehouse (7 dimensions,
// 13 tables, 4 hierarchical dimensions, >60k facts — the §6.1 shape). The
// warehouse is built once and shared; it is read-only after construction.
func AWReseller() *Warehouse {
	awResellerOnce.Do(func() { awResellerWH = buildAWReseller() })
	return awResellerWH
}

// salesBand snaps a raw annual sales figure to the banded levels the
// original AdventureWorks reseller dimension uses.
func salesBand(raw float64) float64 {
	bands := []float64{30000, 80000, 150000, 300000, 600000, 800000, 1000000, 1500000, 3000000}
	best := bands[0]
	for _, b := range bands[1:] {
		if diff, bestDiff := abs(raw-b), abs(raw-best); diff < bestDiff {
			best = b
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func buildAWReseller() *Warehouse {
	db := relation.NewDatabase("AW_RESELLER")
	sh := buildAWDimCommon(db, true)
	rng := stats.NewRNG(20072)

	reseller := db.MustCreateTable(relation.MustSchema("DimReseller", []relation.Column{
		iCol("ResellerKey"), ftCol("ResellerName"), ftCol("BusinessType"),
		fCol("AnnualSales"), fCol("AnnualRevenue"), iCol("NumberOfEmployees"),
		iCol("GeographyKey"),
	}, "ResellerKey", []relation.ForeignKey{
		fk("GeographyKey", "DimGeography", "GeographyKey"),
	}))

	const nResellers = 400
	resellerGeo := make([]int, nResellers+1)
	for rk := 1; rk <= nResellers; rk++ {
		name := fmt.Sprintf("%s %s", awResellerWords1[rng.Intn(len(awResellerWords1))],
			awResellerWords2[rng.Intn(len(awResellerWords2))])
		bt := awBusinessTypes[rng.Intn(len(awBusinessTypes))]
		gi := rng.Intn(int(sh.geoCount))
		resellerGeo[rk] = gi
		// Business size: warehouses are big, specialty shops small; sales
		// scale with employees (plus noise), and country shifts the mix,
		// which is what makes the Figure 6 / Figure 7(c) correlations
		// informative.
		employees := 2 + rng.Intn(28)
		switch bt {
		case "Warehouse":
			employees = 40 + rng.Intn(260)
		case "Value Added Reseller":
			employees = 10 + rng.Intn(80)
		}
		if sh.geoCountry[gi] == "Canada" {
			employees = employees/2 + 1 // smaller Canadian outfits
		}
		// Head counts report in rounded steps past ten, like the original
		// dataset's banded reseller demographics.
		if employees > 100 {
			employees = employees / 10 * 10
		} else if employees > 10 {
			employees = employees / 5 * 5
		}
		// The original dataset bands AnnualSales into a handful of levels
		// (300K … 3M) with AnnualRevenue a tenth of sales.
		raw := float64(employees) * (8000 + 7000*rng.Float64())
		annualSales := salesBand(raw)
		annualRevenue := annualSales / 10
		reseller.MustAppend(relation.Int(int64(rk)), relation.String(name), relation.String(bt),
			relation.Float(annualSales), relation.Float(annualRevenue),
			relation.Int(int64(employees)), relation.Int(int64(gi+1)))
	}

	department := db.MustCreateTable(relation.MustSchema("DimDepartment", []relation.Column{
		iCol("DepartmentKey"), ftCol("DepartmentName"),
	}, "DepartmentKey", nil))
	for i, d := range awDepartments {
		department.MustAppend(relation.Int(int64(i+1)), relation.String(d))
	}

	employee := db.MustCreateTable(relation.MustSchema("DimEmployee", []relation.Column{
		iCol("EmployeeKey"), ftCol("FirstName"), ftCol("LastName"), ftCol("Title"),
		iCol("DepartmentKey"), iCol("TerritoryKey"),
	}, "EmployeeKey", []relation.ForeignKey{
		fk("DepartmentKey", "DimDepartment", "DepartmentKey"),
		fk("TerritoryKey", "DimSalesTerritory", "TerritoryKey"),
	}))
	const nEmployees = 96
	for ek := 1; ek <= nEmployees; ek++ {
		fn := awFirstNames[rng.Intn(len(awFirstNames))]
		ln := awLastNames[rng.Intn(len(awLastNames))]
		ti := rng.Intn(len(awTitles))
		// Sales staff dominate, and the title determines the department.
		if rng.Float64() < 0.7 {
			ti = rng.Intn(2) // Sales Representative / Sales Manager
		}
		dept := int64(1)
		switch awTitles[ti] {
		case "Marketing Specialist":
			dept = 2
		case "Production Technician":
			dept = 3
		case "Design Engineer":
			dept = 4
		case "Shipping Clerk":
			dept = 5
		}
		employee.MustAppend(relation.Int(int64(ek)), relation.String(fn), relation.String(ln),
			relation.String(awTitles[ti]), relation.Int(dept),
			relation.Int(int64(rng.Intn(len(awTerritory))+1)))
	}

	fact := db.MustCreateTable(relation.MustSchema("FactResellerSales", []relation.Column{
		iCol("SalesKey"), iCol("ProductKey"), iCol("ResellerKey"), iCol("EmployeeKey"),
		iCol("OrderDateKey"), iCol("PromotionKey"), iCol("CurrencyKey"),
		iCol("SalesTerritoryKey"), iCol("OrderQuantity"), fCol("UnitPrice"),
	}, "SalesKey", []relation.ForeignKey{
		fk("ProductKey", "DimProduct", "ProductKey"),
		fk("ResellerKey", "DimReseller", "ResellerKey"),
		fk("EmployeeKey", "DimEmployee", "EmployeeKey"),
		fk("OrderDateKey", "DimDate", "DateKey"),
		fk("PromotionKey", "DimPromotion", "PromotionKey"),
		fk("CurrencyKey", "DimCurrency", "CurrencyKey"),
		fk("SalesTerritoryKey", "DimSalesTerritory", "TerritoryKey"),
	}))

	// Resolve each geography row's territory once for the fact loop.
	geoTerr := make([]int64, sh.geoCount)
	for i, g := range awGeo {
		for ti, t := range awTerritory {
			if t[0] == g[4] {
				geoTerr[i] = int64(ti + 1)
			}
		}
	}

	for sk := int64(1); sk <= AWResellerFactCount; sk++ {
		rk := 1 + rng.Intn(nResellers)
		gi := resellerGeo[rk]
		country := sh.geoCountry[gi]
		pi := pickProduct(rng, country)
		p := awProducts[pi]
		dk := int64(1 + rng.Intn(int(sh.dateCount)))
		month := int((dk - 1) / 28 % 12)
		qty := int64(2 + rng.Intn(24)) // resellers order in bulk
		if p.dealerPrice > 400 {
			qty = int64(1 + rng.Intn(6))
		}
		price := p.dealerPrice * (1.05 + 0.2*rng.Float64())
		fact.MustAppend(relation.Int(sk), relation.Int(int64(pi+1)), relation.Int(int64(rk)),
			relation.Int(int64(1+rng.Intn(nEmployees))), relation.Int(dk),
			relation.Int(promotionFor(rng, p, month)), relation.Int(currencyForCountry(country)),
			relation.Int(geoTerr[gi]), relation.Int(qty), relation.Float(price))
	}

	g := schemagraph.New(db, "FactResellerSales")
	mustAddDim := func(d *schemagraph.Dimension) {
		if err := g.AddDimension(d); err != nil {
			panic(err)
		}
	}
	mustAddDim(&schemagraph.Dimension{
		Name:   "Product",
		Tables: []string{"DimProduct", "DimProductSubcategory", "DimProductCategory", "DimProductModel"},
		Hierarchies: []schemagraph.Hierarchy{
			{
				Name: "Category",
				Levels: []schemagraph.AttrRef{
					{Table: "DimProductCategory", Attr: "CategoryName"},
					{Table: "DimProductSubcategory", Attr: "SubcategoryName"},
					{Table: "DimProduct", Attr: "EnglishProductName"},
				},
			},
			{
				Name: "ProductLine",
				Levels: []schemagraph.AttrRef{
					{Table: "DimProductModel", Attr: "ProductLine"},
					{Table: "DimProductModel", Attr: "ModelName"},
					{Table: "DimProduct", Attr: "EnglishProductName"},
				},
			},
		},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimProductSubcategory", Attr: "SubcategoryName"},
			{Table: "DimProductCategory", Attr: "CategoryName"},
			{Table: "DimProductModel", Attr: "ProductLine"},
			{Table: "DimProduct", Attr: "Color"},
			{Table: "DimProduct", Attr: "DealerPrice"},
		},
	})
	mustAddDim(&schemagraph.Dimension{
		Name:   "Reseller",
		Tables: []string{"DimReseller", "DimGeography", "DimSalesTerritory"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Geography",
			Levels: []schemagraph.AttrRef{
				{Table: "DimGeography", Attr: "CountryRegionName"},
				{Table: "DimGeography", Attr: "StateProvinceName"},
				{Table: "DimGeography", Attr: "City"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimGeography", Attr: "City"},
			{Table: "DimGeography", Attr: "StateProvinceName"},
			{Table: "DimReseller", Attr: "BusinessType"},
			{Table: "DimReseller", Attr: "AnnualSales"},
			{Table: "DimReseller", Attr: "AnnualRevenue"},
			{Table: "DimReseller", Attr: "NumberOfEmployees"},
		},
	})
	mustAddDim(&schemagraph.Dimension{
		Name:   "Employee",
		Tables: []string{"DimEmployee", "DimDepartment"},
		Hierarchies: []schemagraph.Hierarchy{{
			Name: "Organization",
			Levels: []schemagraph.AttrRef{
				{Table: "DimDepartment", Attr: "DepartmentName"},
				{Table: "DimEmployee", Attr: "Title"},
				{Table: "DimEmployee", Attr: "LastName"},
			},
		}},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimEmployee", Attr: "Title"},
			{Table: "DimDepartment", Attr: "DepartmentName"},
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
	mustAddDim(&schemagraph.Dimension{
		Name:   "SalesTerritory",
		Tables: []string{"DimSalesTerritory"},
		GroupBy: []schemagraph.AttrRef{
			{Table: "DimSalesTerritory", Attr: "Region"},
			{Table: "DimSalesTerritory", Attr: "TerritoryGroup"},
		},
	})
	if err := g.Build(); err != nil {
		panic(err)
	}
	// The fact's own SalesTerritoryKey edge is the SalesTerritory
	// dimension; territory reached through the reseller's geography stays
	// in the Reseller dimension.
	g.LabelEdge("FactResellerSales", "SalesTerritoryKey", "SalesTerritory", "SalesTerritory")
	// The employee's territory assignment is part of the Employee
	// interpretation.
	g.LabelEdge("DimEmployee", "TerritoryKey", "EmployeeTerritory", "Employee")
	return NewWarehouse(db, g)
}
