package exec

import (
	"strings"

	"gis/internal/plan"
)

// srcLabel names the sources feeding a plan subtree, for partial-result
// outcome records: the distinct FragScan source names joined with "+",
// or "?" when the subtree touches no remote fragment.
func srcLabel(n plan.Node) string {
	var names []string
	seen := map[string]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if fs, ok := n.(*plan.FragScan); ok && !seen[fs.Frag.Source] {
			seen[fs.Frag.Source] = true
			names = append(names, fs.Frag.Source)
		}
		plan.EachInput(n, func(in *plan.Node) { walk(*in) })
	}
	walk(n)
	if len(names) == 0 {
		return "?"
	}
	return strings.Join(names, "+")
}
