// Package emit holds the deterministic emit helpers the hand-serialized
// exporters share. The exporters in telemetry, fleetobs, xray and insight
// write JSON with fixed field order and fixed number formatting, so the same
// input always yields the same bytes; these helpers fix the two encodings
// they have in common.
package emit

import (
	"encoding/json"
	"strconv"

	"toss/internal/simtime"
)

// JSONString escapes s as a JSON string literal. Control bytes become
// \u00XX escapes, so every reader of the standard accepts the result.
func JSONString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Micros renders virtual nanoseconds as microseconds with nanosecond
// precision — Chrome's trace_event ts/dur unit.
func Micros(d simtime.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64)
}
