// Command benchjson validates a gisbench -json stream on stdin: one
// experiments.Record object per line, no unknown fields, and internally
// consistent tables (every row as wide as its header). check.sh pipes
// `gisbench -json -quick` through it so schema drift in either the
// producer or EXPERIMENTS.md's documented contract fails the gate.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gis/internal/experiments"
)

func main() {
	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	n := 0
	for {
		var rec experiments.Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: record %d: %v\n", n+1, err)
			os.Exit(1)
		}
		n++
		if err := validate(rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: record %d (%s): %v\n", n, rec.ID, err)
			os.Exit(1)
		}
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no records on stdin")
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d records ok\n", n)
}

func validate(rec experiments.Record) error {
	if rec.ID == "" {
		return fmt.Errorf("empty id")
	}
	if rec.Title == "" {
		return fmt.Errorf("empty title")
	}
	if len(rec.Header) == 0 {
		return fmt.Errorf("empty header")
	}
	if len(rec.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for i, row := range rec.Rows {
		if len(row) != len(rec.Header) {
			return fmt.Errorf("row %d has %d cells, header has %d", i, len(row), len(rec.Header))
		}
	}
	if rec.ElapsedMS < 0 {
		return fmt.Errorf("negative elapsed_ms %v", rec.ElapsedMS)
	}
	if rec.At == "" {
		return fmt.Errorf("empty at timestamp")
	}
	return nil
}
