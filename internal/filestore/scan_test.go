package filestore

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gis/internal/source"
	"gis/internal/types"
)

// encoding/csv is the oracle of the record scanner and shares no code
// with it: set up as filestore used to set it up — its defaults — except
// that it does not count fields, which is csvIter's job.

// oracleRecords reads data with encoding/csv: the records before the
// first error, and the error.
func oracleRecords(data []byte) ([][]string, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1
	var out [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// scanRecords reads data with the scanner, whole (block 0) or as a file
// read block bytes at a time.
func scanRecords(data []byte, block int) ([][]string, error) {
	s := records{text: string(data), last: true}
	if block > 0 {
		s = records{in: bytes.NewReader(data), block: block}
	}
	var out [][]string
	for {
		rec, err := s.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, slices.Clone(rec))
	}
}

// checkAgainstOracle wants the scanner — over the whole text and over
// blocks small enough that every record is carried over — to yield the
// oracle's records, or to fail where the oracle fails.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleRecords(data)
	for _, block := range []int{0, 1, 7, 64} {
		got, err := scanRecords(data, block)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q, block %d: error %v, encoding/csv %v", data, block, err, wantErr)
		}
		if !slices.EqualFunc(got, want, func(a, b []string) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%q, block %d:\n got %q (%v)\nwant %q (%v)", data, block, got, err, want, wantErr)
		}
	}
}

// scanSeeds are the cases the scanner's rules are made of.
var scanSeeds = []string{
	"1,widget,9.99\n2,gadget,19.5\n",
	"a,b\r\nc,d\r\n",
	"a,b\r",                                // a lone \r before the end of input is dropped
	"a\rb,c\r\r\n",                         // elsewhere it is content
	"\n\n\r\na\n\n\r\n\r",                  // empty lines
	"\r\r",                                 // not an empty line
	"a,\n,\n,,\r\nb,",                      // empty fields, a comma that ends the input
	`"a,b","c""d",""` + "\n",               // quotes: comma inside, "", empty
	"\"one\r\ntwo\",\"\r\n\r\r\n\"\r\nx\n", // a quoted field spans lines: \r\n reads \n
	"\"a\"\r",
	"\"a\"\r\r\n",  // \r after the closing quote
	`a"b,c` + "\n", // a bare quote
	`ab,c"` + "\nnext,record\n",
	`"a"b,c` + "\n", // something after the closing quote
	`"a" ,c` + "\n",
	`"abc` + "\nd,e\n", // unterminated
	`"abc""`,
	`"`,
	`""`,
	`"""`,
	"a\tb,\"c\td\"\n",   // a tab is content
	"a→b,\"→\",\n→",     // and so are multi-byte runes
	"a,b\xc2",           // and half of one
	"\xef\xbb\xbf1,2\n", // a BOM is content
	"a\x00b,\x00\n\x00",
	"\xff\xfe,\xc3\n",
	"a b, c ,\n", // spaces are content
	strings.Repeat("x", 63) + "\n" + strings.Repeat("y", 64) + "\n" + strings.Repeat("z", 62) + ",\n", // records ending at, before and after a block edge
	"\"" + strings.Repeat("long\r\n", 40) + "\",1\n2,3\n",                                             // a record longer than a block
	"1,a,2.5\n2,\"b\nb\",\n,,\nx,c,1\n",
	"1,a,2.5\n2,b\n",
}

func TestScanRecordsMatchesEncodingCSV(t *testing.T) {
	for _, c := range scanSeeds {
		checkAgainstOracle(t, []byte(c))
	}
	// Every short text over the bytes the rules turn on, then seeded
	// longer ones.
	alphabet := []byte("a,\"\r\n")
	var text []byte
	var every func(n int)
	every = func(n int) {
		checkAgainstOracle(t, text)
		if n == 0 {
			return
		}
		for _, b := range alphabet {
			text = append(text, b)
			every(n - 1)
			text = text[:len(text)-1]
		}
	}
	every(6)
	rng := rand.New(rand.NewSource(25))
	pieces := []string{"a", "bc", ",", ",", "\"", "\"\"", "\r", "\n", "\r\n", "→", " ", "\x00"}
	for i := 0; i < 20000; i++ {
		text = text[:0]
		for n := rng.Intn(40); n > 0; n-- {
			text = append(text, pieces[rng.Intn(len(pieces))]...)
		}
		checkAgainstOracle(t, text)
	}
}

// scanRows scans data as table t of a fresh store, for a consumer that
// keeps its rows (under the ownership oracle) or one that was lent them.
func scanRows(data string, cols []int, lent bool) ([]types.Row, error) {
	s := New("fuzz")
	if err := s.RegisterData("t", data, fileSchema); err != nil {
		return nil, err
	}
	q := source.NewScan("t")
	q.Columns = cols
	it, err := s.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	if lent {
		source.Use(it, source.Lent)
		return source.DrainCopies(it)
	}
	return source.DrainOwned(it)
}

// checkScans wants the four ways to scan one table to agree: kept and
// lent read the same rows, the projection of the two columns that can
// fail to coerce reads those columns of them, and all four fail at the
// same record (field count, coercion) or none does.
func checkScans(t *testing.T, data string) {
	t.Helper()
	want, wantErr := scanRows(data, nil, false)
	for _, cols := range [][]int{nil, {2, 0}} {
		for _, lent := range []bool{false, true} {
			got, err := scanRows(data, cols, lent)
			what := fmt.Sprintf("%q, columns %v, lent %v", data, cols, lent)
			if (err != nil) != (wantErr != nil) || len(got) != len(want) {
				t.Fatalf("%s: %d rows, %v; the kept scan of every column has %d, %v", what, len(got), err, len(want), wantErr)
			}
			for i, r := range got {
				w := want[i]
				if cols != nil {
					w = types.Row{w[2], w[0]}
				}
				if !slices.EqualFunc(r, w, types.Identical) {
					t.Fatalf("%s: row %d = %v, want %v", what, i, r, w)
				}
			}
		}
	}
}

func TestScansAgree(t *testing.T) {
	for _, c := range scanSeeds {
		checkScans(t, c)
	}
}

// FuzzScanRecords: whatever the bytes, the scanner and encoding/csv
// yield the same records or both fail, over the text whole and in
// blocks; and a table of those bytes scans alike kept and lent,
// projected and not.
func FuzzScanRecords(f *testing.F) {
	for _, c := range scanSeeds {
		f.Add([]byte(c))
	}
	f.Add([]byte("a\xa7b,\xc2\xa7c\n")) // '§' is two bytes of text
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		checkScans(t, string(data))
	})
}
