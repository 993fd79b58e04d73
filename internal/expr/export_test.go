package expr

import "gis/internal/types"

// BindCopy and SameBound give the external tests of this package the
// copying oracle of Bind (bindcopy_test.go).
var (
	BindCopy  = func(e Expr, schema *types.Schema) (Expr, error) { return bindCopy(e, schema, false) }
	SameBound = sameBound
)
