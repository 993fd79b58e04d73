package expr

import (
	"fmt"
	"math"
	"strings"

	"gis/internal/types"
)

// builtin describes one scalar function known to the engine.
type builtin struct {
	name string
	// minArgs/maxArgs bound the accepted arity; maxArgs<0 means variadic.
	minArgs, maxArgs int
	// resultType infers the return kind from bound argument kinds.
	resultType func(args []types.Kind) (types.Kind, error)
	// eval computes the result. Arguments may be NULL only when
	// nullPropagating is false.
	eval func(args []types.Value) (types.Value, error)
	// nullPropagating short-circuits to NULL when any argument is NULL.
	nullPropagating bool
}

func fixedType(k types.Kind) func([]types.Kind) (types.Kind, error) {
	return func([]types.Kind) (types.Kind, error) { return k, nil }
}

func sameAsArg(i int) func([]types.Kind) (types.Kind, error) {
	return func(args []types.Kind) (types.Kind, error) { return args[i], nil }
}

func numericArg(i int) func([]types.Kind) (types.Kind, error) {
	return func(args []types.Kind) (types.Kind, error) {
		if args[i] != types.KindNull && !args[i].Numeric() {
			return types.KindNull, fmt.Errorf("argument %d must be numeric, got %s", i+1, args[i])
		}
		return args[i], nil
	}
}

// builtins is the scalar function registry, keyed by upper-case name.
var builtins = map[string]*builtin{}

func register(b *builtin) { builtins[b.name] = b }

func init() {
	register(&builtin{
		name: "ABS", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: numericArg(0),
		eval: func(args []types.Value) (types.Value, error) {
			if args[0].Kind() == types.KindInt {
				v := args[0].Int()
				if v < 0 {
					v = -v
				}
				return types.NewInt(v), nil
			}
			return types.NewFloat(math.Abs(args[0].AsFloat())), nil
		},
	})
	register(&builtin{
		name: "CEIL", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindFloat),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewFloat(math.Ceil(args[0].AsFloat())), nil
		},
	})
	register(&builtin{
		name: "FLOOR", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindFloat),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewFloat(math.Floor(args[0].AsFloat())), nil
		},
	})
	register(&builtin{
		name: "ROUND", minArgs: 1, maxArgs: 2, nullPropagating: true,
		resultType: fixedType(types.KindFloat),
		eval: func(args []types.Value) (types.Value, error) {
			f := args[0].AsFloat()
			scale := 0.0
			if len(args) == 2 {
				scale = args[1].AsFloat()
			}
			p := math.Pow(10, scale)
			return types.NewFloat(math.Round(f*p) / p), nil
		},
	})
	register(&builtin{
		name: "SQRT", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindFloat),
		eval: func(args []types.Value) (types.Value, error) {
			f := args[0].AsFloat()
			if f < 0 {
				return types.Null, fmt.Errorf("SQRT of negative value %v", f)
			}
			return types.NewFloat(math.Sqrt(f)), nil
		},
	})
	register(&builtin{
		name: "POW", minArgs: 2, maxArgs: 2, nullPropagating: true,
		resultType: fixedType(types.KindFloat),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewFloat(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
		},
	})
	register(&builtin{
		name: "LOWER", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindString),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewString(strings.ToLower(args[0].Str())), nil
		},
	})
	register(&builtin{
		name: "UPPER", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindString),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewString(strings.ToUpper(args[0].Str())), nil
		},
	})
	register(&builtin{
		name: "LENGTH", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindInt),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewInt(int64(len(args[0].Str()))), nil
		},
	})
	register(&builtin{
		name: "TRIM", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindString),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewString(strings.TrimSpace(args[0].Str())), nil
		},
	})
	register(&builtin{
		name: "SUBSTR", minArgs: 2, maxArgs: 3, nullPropagating: true,
		resultType: fixedType(types.KindString),
		eval: func(args []types.Value) (types.Value, error) {
			s := args[0].Str()
			// SQL SUBSTR is 1-based.
			start := int(args[1].Int()) - 1
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if len(args) == 3 {
				if n := int(args[2].Int()); start+n < end {
					end = start + n
				}
			}
			if end < start {
				end = start
			}
			return types.NewString(s[start:end]), nil
		},
	})
	register(&builtin{
		name: "REPLACE", minArgs: 3, maxArgs: 3, nullPropagating: true,
		resultType: fixedType(types.KindString),
		eval: func(args []types.Value) (types.Value, error) {
			return types.NewString(strings.ReplaceAll(args[0].Str(), args[1].Str(), args[2].Str())), nil
		},
	})
	register(&builtin{
		name: "CONCAT", minArgs: 1, maxArgs: -1, nullPropagating: false,
		resultType: fixedType(types.KindString),
		eval: func(args []types.Value) (types.Value, error) {
			var b strings.Builder
			for _, a := range args {
				if a.IsNull() {
					continue
				}
				s, err := a.Coerce(types.KindString)
				if err != nil {
					return types.Null, err
				}
				b.WriteString(s.Str())
			}
			return types.NewString(b.String()), nil
		},
	})
	register(&builtin{
		name: "COALESCE", minArgs: 1, maxArgs: -1, nullPropagating: false,
		resultType: func(args []types.Kind) (types.Kind, error) {
			for _, k := range args {
				if k != types.KindNull {
					return k, nil
				}
			}
			return types.KindNull, nil
		},
		eval: func(args []types.Value) (types.Value, error) {
			for _, a := range args {
				if !a.IsNull() {
					return a, nil
				}
			}
			return types.Null, nil
		},
	})
	register(&builtin{
		name: "NULLIF", minArgs: 2, maxArgs: 2, nullPropagating: false,
		resultType: sameAsArg(0),
		eval: func(args []types.Value) (types.Value, error) {
			if !args[0].IsNull() && !args[1].IsNull() && args[0].Compare(args[1]) == 0 {
				return types.Null, nil
			}
			return args[0], nil
		},
	})
	register(&builtin{
		name: "YEAR", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindInt),
		eval: func(args []types.Value) (types.Value, error) {
			if args[0].Kind() != types.KindTime {
				return types.Null, fmt.Errorf("YEAR requires TIME argument")
			}
			return types.NewInt(int64(args[0].Time().Year())), nil
		},
	})
	register(&builtin{
		name: "MONTH", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindInt),
		eval: func(args []types.Value) (types.Value, error) {
			if args[0].Kind() != types.KindTime {
				return types.Null, fmt.Errorf("MONTH requires TIME argument")
			}
			return types.NewInt(int64(args[0].Time().Month())), nil
		},
	})
	register(&builtin{
		name: "DAY", minArgs: 1, maxArgs: 1, nullPropagating: true,
		resultType: fixedType(types.KindInt),
		eval: func(args []types.Value) (types.Value, error) {
			if args[0].Kind() != types.KindTime {
				return types.Null, fmt.Errorf("DAY requires TIME argument")
			}
			return types.NewInt(int64(args[0].Time().Day())), nil
		},
	})
}
