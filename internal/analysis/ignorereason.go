package analysis

import (
	"fmt"
	"strings"
)

// runIgnorereason audits the suppression directives themselves: every
// //cubevet:ignore must carry a "-- reason" so the tree records why each
// invariant was waived. A bare directive still suppresses its target pass
// (legacy trees degrade gracefully) but is reported here — and only a
// reasoned directive can suppress an ignorereason finding, so a bare ignore
// cannot hide its own audit. A directive naming a pass that is not
// registered (a typo, or a pass since deleted) suppresses nothing, so it is
// reported too.
func runIgnorereason(mod *Module, p *Package) []Finding {
	known := map[string]bool{}
	for _, name := range PassNames() {
		known[name] = true
	}
	var out []Finding
	for _, file := range p.Files {
		for _, c := range ignoreComments(file) {
			target, reason := splitDirective(c.Text)
			pos := p.Fset.Position(c.Pos())
			if target != "" {
				for _, name := range strings.Split(target, ",") {
					if name = strings.TrimSpace(name); !known[name] {
						out = append(out, Finding{
							Pos:  pos,
							Pass: "ignorereason",
							Message: fmt.Sprintf(
								"cubevet:ignore names unknown pass %q, so it suppresses nothing (have %s)", name, strings.Join(PassNames(), ", ")),
						})
					}
				}
			}
			if reason != "" {
				continue
			}
			what := "all passes"
			if target != "" {
				what = fmt.Sprintf("pass %q", target)
			}
			out = append(out, Finding{
				Pos:  pos,
				Pass: "ignorereason",
				Message: fmt.Sprintf(
					"cubevet:ignore for %s without a justification; append \"-- <why>\" so the suppression is auditable", what),
			})
		}
	}
	return out
}
