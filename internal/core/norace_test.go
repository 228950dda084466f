//go:build !race

package core

// raceEnabled reports a -race build; the within-run timing ratio tests
// skip under the detector, which slows the modes by different factors.
const raceEnabled = false
