//go:build !race

package wire_test

// raceEnabled reports a -race build; the within-run timing ratio tests
// skip under the detector, which slows the modes by different factors.
const raceEnabled = false
