package parallel

import (
	"testing"

	"simevo/internal/fuzzy"
)

// TestTypeIIDeltaWirePowerDelay is the warm-patch satellite for the
// multi-objective pipeline: under Type II delta broadcasts a slave's
// net-length mirror is never rebuilt — the slot deltas feed the coordinate
// journal and only the dirty nets are re-estimated. The trajectory must
// equal the from-scratch reference engine (DisableIncremental), bit for
// bit, so a warm-patched wire/power/delay evaluation is provably
// indistinguishable from one rebuilt from first principles each iteration.
func TestTypeIIDeltaWirePowerDelay(t *testing.T) {
	const iters, procs = 15, 3
	ref := runTypeIIRef(t, fuzzy.WirePowerDelay, iters, 2006, true, detOpts(procs))
	delta := runTypeIIRef(t, fuzzy.WirePowerDelay, iters, 2006, false, detOpts(procs))
	sameTrajectory(t, "delta-broadcast incremental", ref, delta)
	// On this small circuit most iterations move over a third of the
	// cells, so the codec may fall back to full frames — the master must
	// never send more than a full frame per iteration, but equal bytes are
	// fine (the byte-saving property is asserted at scale in delta_test.go).
	if sent, full := delta.RankStats[0].BytesSent, iters*fullFrameBytes(delta, procs); sent > full {
		t.Fatalf("delta broadcasts sent %d bytes, %d iterations of full frames %d — regression",
			sent, iters, full)
	}
}
