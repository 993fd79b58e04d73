// Hospitals: integrate two hospital systems whose schemas conflict in
// every way the paper enumerates — attribute names and order, value
// representations (sex codes vs words), units (pounds vs kilograms), and
// a site attribute that exists in neither system. The mediator presents
// one clean global `patients` table, pushes predicates through the
// mappings (inverting the value map and the unit conversion),
// de-duplicates patients registered at both sites, and routes, prunes
// and moves rows by the site each fragment stands for.
package main

import (
	"context"
	"fmt"
	"log"

	"gis"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

func main() {
	ctx := context.Background()
	e := gis.New()

	// --- Hospital A: (pid, sex 'M'/'F', weight in kg). ---
	hospA := relstore.New("hospA")
	must(hospA.CreateTable("pat", types.NewSchema(
		types.Column{Name: "pid", Type: types.KindInt},
		types.Column{Name: "sex", Type: types.KindString},
		types.Column{Name: "kg", Type: types.KindFloat},
	), 0))
	mustN(hospA.Insert(ctx, "pat", []types.Row{
		{types.NewInt(1), types.NewString("F"), types.NewFloat(61)},
		{types.NewInt(2), types.NewString("M"), types.NewFloat(83)},
		{types.NewInt(3), types.NewString("F"), types.NewFloat(55)},
		{types.NewInt(7), types.NewString("M"), types.NewFloat(102)},
	}))

	// --- Hospital B: (weight in POUNDS first, then id, then full-word
	// gender) — a different column order, unit, and coding. ---
	hospB := relstore.New("hospB")
	must(hospB.CreateTable("people", types.NewSchema(
		types.Column{Name: "weight_lbs", Type: types.KindFloat},
		types.Column{Name: "person_id", Type: types.KindInt},
		types.Column{Name: "gender", Type: types.KindString},
	), 1))
	mustN(hospB.Insert(ctx, "people", []types.Row{
		{types.NewFloat(134.5), types.NewInt(4), types.NewString("female")},
		{types.NewFloat(225.0), types.NewInt(5), types.NewString("male")},
		{types.NewFloat(224.9), types.NewInt(7), types.NewString("male")}, // also at A!
	}))

	// --- Global schema: patients(id, gender, weight_kg, site). ---
	cat := e.Catalog()
	must(cat.AddSource(hospA))
	must(cat.AddSource(hospB))
	global := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "gender", Type: types.KindString},
		types.Column{Name: "weight_kg", Type: types.KindFloat},
		types.Column{Name: "site", Type: types.KindString},
	)
	must(cat.DefineTable("patients", global))
	siteA, siteB := types.NewString("A"), types.NewString("B")
	must(cat.MapFragment(ctx, "patients", &gis.Fragment{
		Source: "hospA", RemoteTable: "pat",
		Columns: []gis.ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1, ValueMap: map[string]string{"M": "male", "F": "female"}},
			{RemoteCol: 2},
			{RemoteCol: -1, Const: &siteA},
		},
	}))
	must(cat.MapFragment(ctx, "patients", &gis.Fragment{
		Source: "hospB", RemoteTable: "people",
		Columns: []gis.ColumnMapping{
			{RemoteCol: 1},
			{RemoteCol: 2},
			{RemoteCol: 0, Scale: 0.453592}, // lbs → kg
			{RemoteCol: -1, Const: &siteB},
		},
	}))
	must(e.Analyze(ctx))

	fmt.Println("All patients in the unified representation:")
	res, err := e.Query(ctx, "SELECT * FROM patients ORDER BY id, site")
	must(err)
	fmt.Print(res)

	// The predicate pushes into BOTH sources: hospA receives
	// sex = 'M', hospB receives weight_lbs > 198.4.
	fmt.Println("\nMale patients over 90 kg (predicates translated per source):")
	res, err = e.Query(ctx, `
		SELECT id, weight_kg, site FROM patients
		WHERE gender = 'male' AND weight_kg > 90 ORDER BY id, site`)
	must(err)
	fmt.Print(res)

	fmt.Println("\nHow the mediator decomposed it (EXPLAIN):")
	out, err := e.Explain(ctx,
		"SELECT id FROM patients WHERE gender = 'male' AND weight_kg > 90")
	must(err)
	fmt.Print(out)

	// Patient 7 is registered at both hospitals. Entity resolution:
	// collapse duplicates, preferring one record per id.
	fmt.Println("\nDuplicate registrations (same patient at two sites):")
	res, err = e.Query(ctx, `
		SELECT id, COUNT(*) AS sites FROM patients GROUP BY id HAVING COUNT(*) > 1`)
	must(err)
	fmt.Print(res)

	fmt.Println("\nPer-site averages (unit conversion makes them comparable):")
	res, err = e.Query(ctx, `
		SELECT site, COUNT(*) AS patients, AVG(weight_kg) AS avg_kg
		FROM patients GROUP BY site ORDER BY site`)
	must(err)
	fmt.Print(res)

	// site is a constant of each fragment: every row hospB holds reads
	// 'B'. A filter on it is decided when the query is planned, so
	// hospA is not asked at all, and hospB is asked for everything.
	fmt.Println("\nPatients at site B (EXPLAIN: hospA is pruned):")
	out, err = e.Explain(ctx, "SELECT id, weight_kg FROM patients WHERE site = 'B'")
	must(err)
	fmt.Print(out)

	// A written row goes to the one fragment that can hold it, site
	// included: a new patient at B is stored by hospB, in pounds, and
	// moving patient 3 to B deletes it at A and inserts it at B under one
	// global transaction (two-phase commit).
	mustN(e.Exec(ctx, "INSERT INTO patients VALUES (8, 'female', 68, 'B')"))
	mustN(e.Exec(ctx, "UPDATE patients SET site = 'B' WHERE id = 3"))
	fmt.Println("\nSite B after INSERT … site 'B' and moving patient 3 there:")
	res, err = e.Query(ctx, "SELECT id, weight_kg, site FROM patients WHERE site = 'B' ORDER BY id")
	must(err)
	fmt.Print(res)
	it, err := hospB.Execute(ctx, source.NewScan("people"))
	must(err)
	rows, err := source.Drain(it)
	must(err)
	fmt.Println("stored at hospB as (weight_lbs, person_id, gender):")
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	for _, d := range e.Coordinator().Log().Decisions() {
		fmt.Printf("global transaction %s: commit=%v, participants %v\n", d.TxID, d.Commit, d.Participants)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustN(_ int64, err error) { must(err) }
