package lint

// Analyzer statssurface keeps the wire names of the stats surface
// consistent. /v1/stats embeds each subsystem's stats struct whole
// (DBStats, WALStats, CompressionStats, ...), so a struct's json tags
// are the endpoint's keys: a *Stats/*Status struct that opts into JSON
// (at least one json tag) must tag every exported field, with
// snake_case names, unique within the struct. An untagged exported
// field would ship under its Go name.

import (
	"go/ast"
	"reflect"
	"strings"
)

// StatsSurface reports inconsistent json tags on Stats/Status structs.
var StatsSurface = &Analyzer{
	Name: "statssurface",
	Doc:  "every exported field of a json-tagged Stats/Status struct carries a unique snake_case json tag",
	Run:  runStatsSurface,
}

// runStatsSurface enforces json-tag discipline on the package's own
// Stats/Status structs: once a struct opts into JSON, every exported
// field is tagged, snake_case, and unique.
func runStatsSurface(p *Pass) error {
	inspectFiles(p, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		name := ts.Name.Name
		if !strings.HasSuffix(name, "Stats") && !strings.HasSuffix(name, "Status") {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		tagged := false
		for _, f := range st.Fields.List {
			if jsonTag(f) != "" {
				tagged = true
				break
			}
		}
		if !tagged {
			return true // struct never meant for the wire (e.g. QueryStats header)
		}
		seen := make(map[string]bool)
		for _, f := range st.Fields.List {
			if len(f.Names) == 0 && f.Tag == nil {
				continue // untagged embedded struct: the JSON inlining idiom
			}
			tag := jsonTag(f)
			exported := false
			for _, id := range f.Names {
				if id.IsExported() {
					exported = true
				}
			}
			if len(f.Names) == 0 {
				exported = true
			}
			if tag == "" {
				if exported {
					p.Reportf(f.Pos(), "%s: exported field missing a json tag while siblings are tagged", name)
				}
				continue
			}
			tagName, _, _ := strings.Cut(tag, ",")
			if tagName == "" || tagName == "-" {
				continue
			}
			if !isSnakeCase(tagName) {
				p.Reportf(f.Pos(), "%s: json tag %q is not snake_case", name, tagName)
			}
			if seen[tagName] {
				p.Reportf(f.Pos(), "%s: duplicate json tag %q", name, tagName)
			}
			seen[tagName] = true
		}
		return true
	})
	return nil
}

func jsonTag(f *ast.Field) string {
	if f.Tag == nil {
		return ""
	}
	raw := strings.Trim(f.Tag.Value, "`")
	return reflect.StructTag(raw).Get("json")
}

func isSnakeCase(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
		default:
			return false
		}
	}
	return s != "" && s[0] != '_'
}
