package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gis/internal/relstore"
	"gis/internal/source"
)

// loadTable loads every record of the file or fails: a record that does
// not parse ends start-up, it does not end the table.
func TestLoadTable(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name, data string
		rows       int
		fail       string // what the error names
	}{
		{"good", "1,alice,east\n2,\"bob, jr\",\n\n3,carol,west\n", 3, ""},
		{"barequote", "1,alice,east\n2,bob,west\n3,ca\"rol,east\n4,dave,west\n", 0, "record 3"},
		{"short", "1,alice,east\n2,bob\n3,carol,west\n", 0, "record 2"},
		{"uncoercible", "1,alice,east\nx,bob,west\n", 0, "record 2 column id"},
	} {
		path := filepath.Join(dir, c.name+".csv")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		store := relstore.New("gisd")
		err := loadTable(store, c.name+"="+path+":id:int,name:string,region:string")
		if c.fail != "" {
			if err == nil || !strings.Contains(err.Error(), c.fail) {
				t.Errorf("%s: loadTable = %v, want an error naming %s", c.name, err, c.fail)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		it, err := store.Execute(context.Background(), source.NewScan(c.name))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := source.Drain(it)
		if err != nil || len(rows) != c.rows {
			t.Fatalf("%s: %d rows, %v; want %d", c.name, len(rows), err, c.rows)
		}
		if rows[1][1].Str() != "bob, jr" || !rows[1][2].IsNull() {
			t.Errorf("%s: record 2 loaded as %v", c.name, rows[1])
		}
	}
	if err := loadTable(relstore.New("gisd"), "t="+filepath.Join(dir, "nofile.csv")+":id:int"); err == nil {
		t.Error("a file that is not there loaded")
	}
}
