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

// FuzzConfig: a federation description — ParseConfig and then Apply
// against one in-process relstore source, hospA, with the tables pat
// and orders — returns an error or defines tables, and whatever it maps,
// even before an error, is a fragment with as many columns as its
// table. The seeds are the tests' configs and examples/configs, its
// sources renamed to hospA.
func FuzzConfig(f *testing.F) {
	example := strings.NewReplacer(`"ny"`, `"hospA"`, `"eu"`, `"hospA"`).Replace(`{
  "sources": [{"name": "ny", "addr": "localhost:7070"}, {"name": "eu", "addr": "localhost:7071", "latency_ms": 5, "bandwidth_mbps": 20}],
  "tables": [{"name": "orders",
    "columns": [{"name": "oid", "type": "int"}, {"name": "cust_id", "type": "int"}, {"name": "amount", "type": "float"}],
    "fragments": [
      {"source": "ny", "remote_table": "orders", "columns": [{"remote_col": 0}, {"remote_col": 1}, {"remote_col": 2}], "where": "oid < 100000"},
      {"source": "eu", "remote_table": "orders", "columns": [{"remote_col": 0}, {"remote_col": 1}, {"remote_col": 2}], "where": "oid >= 100000"}]}]}`)
	for _, seed := range []string{
		testConfig,
		example,
		strings.Replace(testConfig, `"type": "int"`, `"type": "frobnicate"`, 1),
		strings.Replace(testConfig, `"id < 1000"`, `"id <"`, 1),
		strings.Replace(testConfig, `{"remote_col": -1, "const": "A"}`, `{"remote_col": -1, "const": "A"}, {"remote_col": 0}`, 1),
		strings.Replace(testConfig, `"scale": 0.453592`, `"value_map": {"1": "2"}`, 1),
		"{bad json",
		"{}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		c := newConfigFixture(t)
		src, _ := c.Source("hospA")
		if err := src.(*relstore.Store).CreateTable("orders", types.NewSchema(
			types.Column{Name: "oid", Type: types.KindInt},
			types.Column{Name: "cust_id", Type: types.KindInt},
			types.Column{Name: "amount", Type: types.KindFloat},
		), 0); err != nil {
			t.Fatal(err)
		}
		_ = c.Apply(context.Background(), cfg, sql.ParseExpr) // an error is an answer; what was mapped is checked below
		for _, name := range c.Tables() {
			tab, err := c.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, fr := range tab.Fragments {
				if len(fr.Columns) != tab.Schema.Len() {
					t.Fatalf("table %s of %d columns maps fragment %d with %d columns", name, tab.Schema.Len(), i, len(fr.Columns))
				}
			}
		}
	})
}
