// Custom warehouse: wiring KDAP onto your own star schema through the
// public API.
//
// This example builds a tiny ticketing data mart from scratch — venues,
// artists, a calendar, and a sales fact table — declares its dimensions,
// hierarchies, and group-by candidates, and runs a keyword query with an
// ambiguous term ("Paris" is both a city and an artist) against it.
//
// Run with:
//
//	go run ./examples/customwarehouse
package main

import (
	"context"
	"fmt"

	"kdap"
)

func main() {
	ctx := context.Background()
	db := kdap.NewDatabase("TicketMart")

	venue := db.MustCreateTable(kdap.MustSchema("Venue", []kdap.Column{
		{Name: "VenueKey", Kind: kdap.KindInt},
		{Name: "VenueName", Kind: kdap.KindString, FullText: true},
		{Name: "City", Kind: kdap.KindString, FullText: true},
		{Name: "Country", Kind: kdap.KindString, FullText: true},
		{Name: "Capacity", Kind: kdap.KindInt},
	}, "VenueKey", nil))

	artist := db.MustCreateTable(kdap.MustSchema("Artist", []kdap.Column{
		{Name: "ArtistKey", Kind: kdap.KindInt},
		{Name: "ArtistName", Kind: kdap.KindString, FullText: true},
		{Name: "Genre", Kind: kdap.KindString, FullText: true},
	}, "ArtistKey", nil))

	month := db.MustCreateTable(kdap.MustSchema("Month", []kdap.Column{
		{Name: "MonthKey", Kind: kdap.KindInt},
		{Name: "MonthName", Kind: kdap.KindString, FullText: true},
		{Name: "Season", Kind: kdap.KindString, FullText: true},
	}, "MonthKey", nil))

	sales := db.MustCreateTable(kdap.MustSchema("TicketSales", []kdap.Column{
		{Name: "SaleKey", Kind: kdap.KindInt},
		{Name: "VenueKey", Kind: kdap.KindInt},
		{Name: "ArtistKey", Kind: kdap.KindInt},
		{Name: "MonthKey", Kind: kdap.KindInt},
		{Name: "Tickets", Kind: kdap.KindInt},
		{Name: "Price", Kind: kdap.KindFloat},
	}, "SaleKey", []kdap.ForeignKey{
		{Column: "VenueKey", RefTable: "Venue", RefColumn: "VenueKey"},
		{Column: "ArtistKey", RefTable: "Artist", RefColumn: "ArtistKey"},
		{Column: "MonthKey", RefTable: "Month", RefColumn: "MonthKey"},
	}))

	venues := [][3]string{
		{"Grand Hall", "Paris", "France"},
		{"Riverside Arena", "London", "United Kingdom"},
		{"Sunset Pavilion", "Los Angeles", "United States"},
		{"Harbour Stage", "Sydney", "Australia"},
	}
	for i, v := range venues {
		venue.MustAppend(kdap.Int(int64(i+1)), kdap.String(v[0]), kdap.String(v[1]),
			kdap.String(v[2]), kdap.Int(int64(5000+i*2500)))
	}
	artists := [][2]string{
		{"Paris Nights", "Electronic"}, // ambiguous with the city!
		{"The Velvet Owls", "Indie Rock"},
		{"Marble Choir", "Classical"},
	}
	for i, a := range artists {
		artist.MustAppend(kdap.Int(int64(i+1)), kdap.String(a[0]), kdap.String(a[1]))
	}
	seasons := []string{"Winter", "Winter", "Spring", "Spring", "Spring", "Summer",
		"Summer", "Summer", "Autumn", "Autumn", "Autumn", "Winter"}
	names := []string{"January", "February", "March", "April", "May", "June",
		"July", "August", "September", "October", "November", "December"}
	for i := 0; i < 12; i++ {
		month.MustAppend(kdap.Int(int64(i+1)), kdap.String(names[i]), kdap.String(seasons[i]))
	}
	// Deterministic synthetic facts: every venue × artist × month cell.
	key := int64(1)
	for v := 1; v <= len(venues); v++ {
		for a := 1; a <= len(artists); a++ {
			for m := 1; m <= 12; m++ {
				tickets := int64(100 + (v*7+a*13+m*3)%200)
				price := 30 + float64((v*11+a*5+m)%40)
				sales.MustAppend(kdap.Int(key), kdap.Int(int64(v)), kdap.Int(int64(a)),
					kdap.Int(int64(m)), kdap.Int(tickets), kdap.Float(price))
				key++
			}
		}
	}

	g := kdap.NewGraph(db, "TicketSales")
	for _, d := range []*kdap.Dimension{
		{
			Name:   "Venue",
			Tables: []string{"Venue"},
			Hierarchies: []kdap.Hierarchy{{Name: "Geo", Levels: []kdap.AttrRef{
				{Table: "Venue", Attr: "Country"},
				{Table: "Venue", Attr: "City"},
				{Table: "Venue", Attr: "VenueName"},
			}}},
			GroupBy: []kdap.AttrRef{
				{Table: "Venue", Attr: "City"},
				{Table: "Venue", Attr: "Country"},
				{Table: "Venue", Attr: "Capacity"},
			},
		},
		{
			Name:   "Artist",
			Tables: []string{"Artist"},
			GroupBy: []kdap.AttrRef{
				{Table: "Artist", Attr: "ArtistName"},
				{Table: "Artist", Attr: "Genre"},
			},
		},
		{
			Name:   "Time",
			Tables: []string{"Month"},
			Hierarchies: []kdap.Hierarchy{{Name: "Calendar", Levels: []kdap.AttrRef{
				{Table: "Month", Attr: "Season"},
				{Table: "Month", Attr: "MonthName"},
			}}},
			GroupBy: []kdap.AttrRef{
				{Table: "Month", Attr: "MonthName"},
				{Table: "Month", Attr: "Season"},
			},
		},
	} {
		if err := g.AddDimension(d); err != nil {
			panic(err)
		}
	}
	if err := g.Build(); err != nil {
		panic(err)
	}
	wh := kdap.BuildWarehouse(db, g)

	// The fact table has no UnitPrice column the default engine would
	// recognize, so declare the revenue measure explicitly.
	fact := db.Table("TicketSales")
	tickets := fact.Schema().ColumnIndex("Tickets")
	price := fact.Schema().ColumnIndex("Price")
	revenue := kdap.Measure{Name: "TicketRevenue", Eval: func(row []kdap.Value) float64 {
		return row[tickets].AsFloat() * row[price].AsFloat()
	}}
	engine := kdap.NewEngineWithMeasure(wh, revenue, kdap.Sum)

	fmt.Println("=== \"Paris Summer\" on a custom warehouse ===")
	nets, err := engine.DifferentiateCtx(ctx, "Paris Summer")
	if err != nil {
		panic(err)
	}
	fmt.Print(kdap.RenderStarNets(nets, 6))

	facets, err := engine.ExploreCtx(ctx, nets[0], kdap.DefaultExploreOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Print(kdap.RenderFacets(facets))
}
