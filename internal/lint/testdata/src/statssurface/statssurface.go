// Package builder is the statssurface fixture: json-tag discipline on
// wire-facing Stats structs.
package builder

// WireStats opted into JSON, so every exported field must carry a
// snake_case, unique tag.
type WireStats struct {
	Good     int64 `json:"good"`
	Bad      int64 `json:"BadName"` // want "not snake_case"
	Dup      int64 `json:"good"`    // want "duplicate json tag"
	Untagged int64 // want "missing a json tag"
}

// QuietStats never opted into JSON: no tags, no findings.
type QuietStats struct {
	Raw int64
}
