package catalog

import (
	"context"
	"encoding/json"
	"fmt"

	"gis/internal/expr"
	"gis/internal/types"
)

// Config is the JSON-serializable description of a global schema: the
// tables, their fragment mappings, and (optionally) the wire addresses
// of the component systems. It lets a federation be defined in a file
// and loaded by tools (gisql -config) instead of Go code.
type Config struct {
	// Sources lists component systems to dial (wire protocol). Tools
	// handle dialing; Apply only validates that each referenced source
	// is registered.
	Sources []SourceConfig `json:"sources,omitempty"`
	Tables  []TableConfig  `json:"tables"`
}

// SourceConfig names one remote component system.
type SourceConfig struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// LatencyMS/BandwidthMBps optionally simulate a WAN link.
	LatencyMS     int `json:"latency_ms,omitempty"`
	BandwidthMBps int `json:"bandwidth_mbps,omitempty"`
}

// TableConfig defines one global table.
type TableConfig struct {
	Name      string           `json:"name"`
	Columns   []ColumnConfig   `json:"columns"`
	Fragments []FragmentConfig `json:"fragments"`
}

// ColumnConfig is one global column.
type ColumnConfig struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// FragmentConfig maps one remote table onto the global table.
type FragmentConfig struct {
	Source      string          `json:"source"`
	RemoteTable string          `json:"remote_table"`
	Columns     []MappingConfig `json:"columns"`
	// Where is the partition predicate in SQL syntax over the global
	// columns, e.g. "id < 100".
	Where string `json:"where,omitempty"`
}

// MappingConfig is one column mapping. Exactly one of RemoteCol >= 0 or
// Const must be meaningful.
type MappingConfig struct {
	RemoteCol int               `json:"remote_col"`
	Scale     float64           `json:"scale,omitempty"`
	Offset    float64           `json:"offset,omitempty"`
	ValueMap  map[string]string `json:"value_map,omitempty"`
	// Const supplies a fixed value (rendered as a string, coerced to
	// the column type); used with RemoteCol = -1.
	Const *string `json:"const,omitempty"`
}

// ParseConfig decodes a JSON federation description.
func ParseConfig(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("catalog config: %w", err)
	}
	return &c, nil
}

// Apply defines every table of the config on the catalog. Sources named
// by the fragments must already be registered (the caller dials them).
// ctx governs the remote metadata fetches behind each fragment mapping.
// parsePred parses the fragments' SQL partition predicates; pass
// sql.ParseExpr (taken as a parameter to keep this package independent
// of the SQL front end). It may be nil when no fragment uses Where.
func (c *Catalog) Apply(ctx context.Context, cfg *Config, parsePred func(string) (expr.Expr, error)) error {
	for _, tc := range cfg.Tables {
		cols := make([]types.Column, len(tc.Columns))
		for i, cc := range tc.Columns {
			kind, ok := types.KindFromName(cc.Type)
			if !ok {
				return fmt.Errorf("catalog config: table %s column %s: unknown type %q", tc.Name, cc.Name, cc.Type)
			}
			cols[i] = types.Column{Name: cc.Name, Type: kind}
		}
		schema := &types.Schema{Columns: cols}
		if err := c.DefineTable(tc.Name, schema); err != nil {
			return err
		}
		for fi, fc := range tc.Fragments {
			if err := ctx.Err(); err != nil {
				return err
			}
			frag := &Fragment{Source: fc.Source, RemoteTable: fc.RemoteTable}
			for ci, mc := range fc.Columns {
				m := ColumnMapping{
					RemoteCol: mc.RemoteCol,
					Scale:     mc.Scale,
					Offset:    mc.Offset,
					ValueMap:  mc.ValueMap,
				}
				if mc.Const != nil {
					if ci >= len(cols) {
						return fmt.Errorf("catalog config: table %s fragment %d: too many column mappings", tc.Name, fi)
					}
					v, err := types.NewString(*mc.Const).Coerce(cols[ci].Type)
					if err != nil {
						return fmt.Errorf("catalog config: table %s fragment %d const: %w", tc.Name, fi, err)
					}
					m.Const = &v
					m.RemoteCol = -1
				}
				frag.Columns = append(frag.Columns, m)
			}
			if fc.Where != "" {
				if parsePred == nil {
					return fmt.Errorf("catalog config: table %s fragment %d has a Where predicate but no parser was supplied", tc.Name, fi)
				}
				pred, err := parsePred(fc.Where)
				if err != nil {
					return fmt.Errorf("catalog config: table %s fragment %d where: %w", tc.Name, fi, err)
				}
				frag.Where = pred
			}
			if err := c.MapFragment(ctx, tc.Name, frag); err != nil {
				return err
			}
		}
	}
	return nil
}
