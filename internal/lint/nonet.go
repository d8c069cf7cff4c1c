package lint

import (
	"strconv"
	"strings"
)

// NoNet reports each import of p that brings in the net package: net
// itself, or a package that depends on it (net/http, say). RunAll applies
// it to the packages under internal/, which every simulation links; the
// live HTTP endpoint belongs to cmd/bfetch-bench. An import of another
// package under internal/ is not reported, since that package's own
// import is, so one stray import gives one finding. There is no hatch.
func NoNet(p *Package) []Diagnostic {
	internal := strings.TrimSuffix(p.Path, p.Rel) + "internal/"
	var out []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !p.netUsers[path] || strings.HasPrefix(path, internal) {
				continue
			}
			p.report(&out, f, imp.Pos(), "nonet", "",
				"import %q links net: no package under internal/ may depend on net", path)
		}
	}
	return out
}
