package catalog

import (
	"context"
	"strings"
	"testing"

	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

const testConfig = `{
  "sources": [{"name": "hospA", "addr": "localhost:7070"}],
  "tables": [
    {
      "name": "patients",
      "columns": [
        {"name": "id", "type": "int"},
        {"name": "gender", "type": "string"},
        {"name": "weight_kg", "type": "float"},
        {"name": "site", "type": "string"}
      ],
      "fragments": [
        {
          "source": "hospA",
          "remote_table": "pat",
          "columns": [
            {"remote_col": 0},
            {"remote_col": 1, "value_map": {"M": "male", "F": "female"}},
            {"remote_col": 2, "scale": 0.453592},
            {"remote_col": -1, "const": "A"}
          ],
          "where": "id < 1000"
        }
      ]
    }
  ]
}`

func newConfigFixture(t *testing.T) *Catalog {
	t.Helper()
	st := relstore.New("hospA")
	if err := st.CreateTable("pat", types.NewSchema(
		types.Column{Name: "pid", Type: types.KindInt},
		types.Column{Name: "sex", Type: types.KindString},
		types.Column{Name: "lbs", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.AddSource(st); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigApply(t *testing.T) {
	c := newConfigFixture(t)
	cfg, err := ParseConfig([]byte(testConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sources) != 1 || cfg.Sources[0].Name != "hospA" {
		t.Errorf("sources = %+v", cfg.Sources)
	}
	if err := c.Apply(context.Background(), cfg, sql.ParseExpr); err != nil {
		t.Fatal(err)
	}
	tab, err := c.Table("patients")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema.Len() != 4 || len(tab.Fragments) != 1 {
		t.Fatalf("table = %+v", tab)
	}
	f := tab.Fragments[0]
	if f.Columns[1].ValueMap["M"] != "male" || f.Columns[2].Scale != 0.453592 {
		t.Errorf("mappings = %+v", f.Columns)
	}
	if f.Columns[3].Const == nil || f.Columns[3].Const.Str() != "A" {
		t.Errorf("const mapping = %+v", f.Columns[3])
	}
	if f.Where == nil || f.Where.String() != "(id < 1000)" {
		t.Errorf("where = %v", f.Where)
	}
}

func TestConfigErrors(t *testing.T) {
	c := newConfigFixture(t)
	if _, err := ParseConfig([]byte("{bad json")); err == nil {
		t.Error("bad JSON must error")
	}
	// Unknown type.
	bad := strings.Replace(testConfig, `"type": "int"`, `"type": "frobnicate"`, 1)
	cfg, _ := ParseConfig([]byte(bad))
	if err := c.Apply(context.Background(), cfg, sql.ParseExpr); err == nil {
		t.Error("unknown type must error")
	}
	// Where without parser.
	c2 := newConfigFixture(t)
	cfg2, _ := ParseConfig([]byte(testConfig))
	if err := c2.Apply(context.Background(), cfg2, nil); err == nil {
		t.Error("Where without parser must error")
	}
	// Bad predicate.
	c3 := newConfigFixture(t)
	badWhere := strings.Replace(testConfig, `"id < 1000"`, `"id <"`, 1)
	cfg3, _ := ParseConfig([]byte(badWhere))
	if err := c3.Apply(context.Background(), cfg3, sql.ParseExpr); err == nil {
		t.Error("bad predicate must error")
	}
	// Unknown source.
	c4 := New()
	cfg4, _ := ParseConfig([]byte(testConfig))
	if err := c4.Apply(context.Background(), cfg4, sql.ParseExpr); err == nil {
		t.Error("unknown source must error")
	}
}
