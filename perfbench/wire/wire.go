// Package wire holds what the load generator and the in-process layer probe
// share: spantreed's NDJSON stream line and the median both report.
package wire

import "sort"

// Line is one NDJSON line of a stream response. Its field order and tags
// match spantreed's, so re-encoding an in-process result with it yields the
// bytes the daemon must send.
type Line struct {
	Index      *int   `json:"index,omitempty"`
	Tree       string `json:"tree,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Supersteps int    `json:"supersteps,omitempty"`
	TotalWords int64  `json:"total_words,omitempty"`
	WalkSteps  int    `json:"walk_steps,omitempty"`

	Done      bool    `json:"done,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Median returns the median of v, or 0 for an empty slice.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
