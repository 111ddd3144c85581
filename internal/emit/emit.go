// Package emit holds the deterministic emit helpers the JSON exporters
// share. The write-only exporters in telemetry, fleetobs and obs write JSON
// with fixed field order and fixed number formatting, so the same input
// always yields the same bytes; JSONString and Micros fix the two encodings
// they have in common. Float fixes the number spelling of the dumps that
// encoding/json writes and reads back (xray's and insight's).
package emit

import (
	"encoding/json"
	"fmt"
	"math"
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

// Float is a float64 that encoding/json writes in strconv's shortest 'g'
// spelling (1e-05, 2.5e+08) rather than its own, so a dump's bytes do not
// depend on the value's magnitude rules. NaN and ±Inf have no JSON
// spelling and fail to encode. It decodes like any float64.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("emit: %v has no JSON spelling", v)
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}
