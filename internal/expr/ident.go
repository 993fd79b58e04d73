package expr

import "strings"

// reserved is the reserved-word set of the dialect: the lexer reads such
// a word as a keyword, and the printers quote an identifier spelled like
// one.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"IS": true, "NULL": true, "LIKE": true, "BETWEEN": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"CROSS": true, "ON": true, "UNION": true, "ALL": true, "DISTINCT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "EXPLAIN": true, "ANALYZE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CAST": true, "EXISTS": true, "ASC": true,
	"DESC": true, "TRUE": true, "FALSE": true,
}

// Reserved reports whether the upper-cased word is a keyword.
func Reserved(upper string) bool { return reserved[upper] }

// QuoteIdent spells an identifier as SQL source: as it is when the lexer
// would read it back as that identifier, otherwise in double quotes with
// embedded quotes doubled.
func QuoteIdent(name string) string {
	plain := name != "" && !reserved[strings.ToUpper(name)]
	for i := 0; plain && i < len(name); i++ {
		c := name[i]
		plain = c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9'
	}
	if plain {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}
