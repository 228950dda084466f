package parallel

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"simevo/internal/fuzzy"
	"simevo/internal/layout"
	"simevo/internal/mpi"
	"simevo/internal/rng"
)

// TestTypeIIIAsyncDeterministic asserts the acceptance invariant of the
// async exchange on the simulated cluster: with compute measurement off,
// polls join the virtual-time reference schedule, so two runs with the
// same seed follow bitwise-identical exchanges — same best μ, same best
// placement, same store epoch, same exchange counts.
func TestTypeIIIAsyncDeterministic(t *testing.T) {
	run := func() *Result {
		prob := testProblem(t, fuzzy.WirePower, 30, 2006)
		opt := detOpts(4)
		opt.Retry = 5
		res, err := RunTypeIII(prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestMu != b.BestMu {
		t.Fatalf("best μ not deterministic: %v vs %v", a.BestMu, b.BestMu)
	}
	if a.Best.Fingerprint() != b.Best.Fingerprint() {
		t.Fatal("best placement not deterministic")
	}
	if a.Exchange == nil || b.Exchange == nil {
		t.Fatal("async Type III returned no exchange stats")
	}
	if a.Exchange.StoreEpoch != b.Exchange.StoreEpoch ||
		a.Exchange.Posted != b.Exchange.Posted ||
		a.Exchange.Adopted != b.Exchange.Adopted {
		t.Fatalf("exchange activity not deterministic: %+v vs %+v", a.Exchange, b.Exchange)
	}
	if a.Exchange.StoreEpoch == 0 {
		t.Fatal("store epoch never advanced; no improvement ever reached the store")
	}
	if a.Exchange.Posted == 0 {
		t.Fatal("no posts recorded; the async protocol did not run")
	}
}

// TestTypeIIISyncExchange keeps the blocking exchange working behind
// Options.SyncExchange: it reports its round-trip overhead, and the store
// counts exactly the improvements the searchers posted.
func TestTypeIIISyncExchange(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 25, 2006)
	opt := detOpts(4)
	opt.Retry = 5
	opt.SyncExchange = true
	res, err := RunTypeIII(prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu <= 0 {
		t.Fatalf("bad best μ %v", res.BestMu)
	}
	if res.Exchange == nil {
		t.Fatal("sync Type III returned no exchange stats")
	}
	if res.Exchange.Posted == 0 {
		t.Fatal("no posts recorded; blocking searchers' improvements never reached the store")
	}
	sum := 0
	for _, sr := range res.Exchange.Searchers {
		sum += sr.Posts
	}
	if res.Exchange.Posted != sum {
		t.Fatalf("posted = %d, but the per-searcher posts sum to %d", res.Exchange.Posted, sum)
	}
}

// scriptComm drives typeIIIStore directly with a scripted frame sequence —
// the chaos harness for the store's merge logic. Recv pops the script;
// Send records every news/reply the store emits. It has the rank-0 calls
// of a real transport, with DropRank recording the expelled rank, so the
// store degrades exactly as it does over TCP.
type scriptComm struct {
	frames  []scriptFrame
	sent    []scriptFrame
	size    int
	dropped map[int]error
}

type scriptFrame struct {
	src, tag int
	data     []byte
}

func (s *scriptComm) Rank() int              { return 0 }
func (s *scriptComm) Size() int              { return s.size }
func (s *scriptComm) Elapsed() time.Duration { return 0 }
func (s *scriptComm) Send(dst, tag int, data []byte) {
	cp := append([]byte(nil), data...)
	s.sent = append(s.sent, scriptFrame{src: dst, tag: tag, data: cp})
}
func (s *scriptComm) Recv(src, tag int) ([]byte, mpi.Status) {
	if len(s.frames) == 0 {
		panic("scriptComm: store received past the end of the script")
	}
	f := s.frames[0]
	s.frames = s.frames[1:]
	return f.data, mpi.Status{Source: f.src, Tag: f.tag}
}
func (s *scriptComm) Poll(src, tag int) ([]byte, mpi.Status, bool) {
	data, st := s.Recv(src, tag)
	return data, st, true
}
func (s *scriptComm) Bcast(root int, data []byte) []byte    { return data }
func (s *scriptComm) Gather(root int, data []byte) [][]byte { return nil }
func (s *scriptComm) Barrier()                              {}

func (s *scriptComm) TrySend(dst, tag int, data []byte) error {
	s.Send(dst, tag, data)
	return nil
}
func (s *scriptComm) TryRecv(src, tag int) ([]byte, mpi.Status, error) {
	data, st := s.Recv(src, tag)
	return data, st, nil
}
func (s *scriptComm) BcastRoot(data []byte)          {}
func (s *scriptComm) GatherRoot(own []byte) [][]byte { return nil }
func (s *scriptComm) DropRank(rank int, err error) {
	if s.dropped == nil {
		s.dropped = make(map[int]error)
	}
	s.dropped[rank] = err
}
func (s *scriptComm) FailedRanks() map[int]error { return s.dropped }

// TestTypeIIIStoreNeverRegresses feeds the store an adversarial schedule —
// duplicated sequence numbers, stale out-of-order posts, worse solutions
// arriving after better ones — and asserts the store's best is monotonic:
// the final best is the maximum μ ever posted, the epoch counts exactly
// the strict improvements, and a poll from a searcher already at the best
// gets a no-solution news frame.
func TestTypeIIIStoreNeverRegresses(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 10, 2006)
	r := rng.New(7)
	place := func() *layout.Placement {
		return layout.NewRandom(prob.Ckt, prob.Cfg.NumRows, r)
	}
	post := func(src int, seq uint64, mu float64) scriptFrame {
		return scriptFrame{src: src, tag: tagT3Post, data: encodePost(seq, mu, place())}
	}
	poll := func(src int, mu float64) scriptFrame {
		return scriptFrame{src: src, tag: tagT3Poll, data: encodePollReq(mu)}
	}
	done := func(src int, mu float64) scriptFrame {
		var st searcherStats
		return scriptFrame{src: src, tag: tagT3Done, data: encodeDone(5, mu, place(), &st)}
	}

	c := &scriptComm{size: 3, frames: []scriptFrame{
		post(1, 1, 0.40), // improvement: epoch 1
		post(2, 1, 0.50), // improvement: epoch 2
		post(1, 2, 0.45), // worse than store best: merged, no regression
		post(1, 2, 0.99), // duplicate seq: dropped even though μ is higher
		post(2, 1, 0.98), // stale replay of rank 2's seq 1: dropped
		poll(1, 0.45),    // store best 0.50 > 0.45: news carries a solution
		post(2, 2, 0.60), // improvement: epoch 3
		poll(2, 0.60),    // poller already at the best: keep-yours news
		done(1, 0.45),
		done(2, 0.60),
	}}
	res, err := typeIIIStore(prob, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu != 0.60 {
		t.Fatalf("store best μ = %v, want 0.60 (the maximum non-dropped post)", res.BestMu)
	}
	if res.Exchange.StoreEpoch != 3 {
		t.Fatalf("store epoch = %d, want 3 strict improvements", res.Exchange.StoreEpoch)
	}
	if res.Exchange.Posted != 4 {
		t.Fatalf("posted = %d, want 4 accepted posts (duplicates and replays dropped)", res.Exchange.Posted)
	}
	var news []scriptFrame
	for _, f := range c.sent {
		if f.tag == tagT3News {
			news = append(news, f)
		}
	}
	if len(news) != 2 {
		t.Fatalf("store sent %d news frames, want 2", len(news))
	}
	if news[0].data[0] != 1 {
		t.Fatal("first poll (behind the best) should have received a solution")
	}
	gotMu := math.Float64frombits(binary.LittleEndian.Uint64(news[0].data[1:]))
	if gotMu != 0.50 {
		t.Fatalf("news solution μ = %v, want the store best 0.50 at poll time", gotMu)
	}
	if news[1].data[0] != 0 {
		t.Fatal("second poll (already at the best) should have received keep-yours")
	}
}

// TestTypeIIIStoreIgnoresDroppedRank: a searcher expelled for a corrupt
// post counts as done once, and the Done it already had in flight must
// neither count it again nor be merged — the store keeps reading until
// every other searcher has reported, so rank 3's best reaches the result.
func TestTypeIIIStoreIgnoresDroppedRank(t *testing.T) {
	prob := testProblem(t, fuzzy.WirePower, 10, 2006)
	place := layout.NewRandom(prob.Ckt, prob.Cfg.NumRows, rng.New(8))
	done := func(src int, mu float64, adopted int) scriptFrame {
		st := searcherStats{adopted: adopted}
		return scriptFrame{src: src, tag: tagT3Done, data: encodeDone(5, mu, place, &st)}
	}
	c := &scriptComm{size: 4, frames: []scriptFrame{
		{src: 1, tag: tagT3Post, data: encodePost(1, 0.5, place)[:20]},
		done(1, 0.3, 1),
		done(2, 0.4, 0),
		done(3, 0.9, 0),
	}}
	res, err := typeIIIStore(prob, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMu != 0.9 {
		t.Fatalf("store best μ = %v, want rank 3's 0.9", res.BestMu)
	}
	if len(c.frames) != 0 {
		t.Fatalf("store stopped with %d frames unread", len(c.frames))
	}
	if res.Exchange.Adopted != 0 {
		t.Fatalf("adopted = %d, want 0: the dropped rank's Done was merged", res.Exchange.Adopted)
	}
	if len(res.FailedRanks) != 1 || res.FailedRanks[0] != 1 {
		t.Fatalf("FailedRanks = %v, want [1]", res.FailedRanks)
	}
}

// storeFrameTags are the frames a searcher may send the store, indexed by
// the fuzzer's tag selector.
var storeFrameTags = [...]int{tagT3Post, tagT3Poll, tagT3Done}

// FuzzTypeIIIStoreFrames hardens the store against corrupt searcher
// frames: one fuzzed (tag, payload) frame from rank 1, then a clean Done
// from each searcher. The store must degrade, never fail or panic: only
// rank 1 may be dropped, every frame is read, and rank 2's clean Done
// (μ 0.4) bounds the best from below.
func FuzzTypeIIIStoreFrames(f *testing.F) {
	prob := testProblem(f, fuzzy.WirePower, 10, 2006)
	place := layout.NewRandom(prob.Ckt, prob.Cfg.NumRows, rng.New(5))
	st := searcherStats{adopted: 1, roundNs: []int64{7, 9}}
	post := encodePost(1, 0.7, place)
	done := encodeDone(5, 0.8, place, &st)
	f.Add(uint8(0), post)
	f.Add(uint8(0), post[:20])
	f.Add(uint8(1), encodePollReq(0.2))
	f.Add(uint8(1), []byte{1, 2, 3})
	f.Add(uint8(2), done)
	f.Add(uint8(2), done[:len(done)-3])
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		var clean searcherStats
		c := &scriptComm{size: 3, frames: []scriptFrame{
			{src: 1, tag: storeFrameTags[int(sel)%len(storeFrameTags)], data: data},
			{src: 1, tag: tagT3Done, data: encodeDone(5, 0.3, place, &clean)},
			{src: 2, tag: tagT3Done, data: encodeDone(5, 0.4, place, &clean)},
		}}
		res, err := typeIIIStore(prob, c)
		if err != nil {
			t.Fatalf("store failed instead of degrading: %v", err)
		}
		for r := range c.dropped {
			if r != 1 {
				t.Fatalf("store dropped rank %d for rank 1's frame", r)
			}
		}
		if len(c.frames) != 0 {
			t.Fatalf("store stopped with %d frames unread", len(c.frames))
		}
		// ≥ 0.4 also covers rank 1's clean Done (μ 0.3), which the store
		// skips once the fuzzed frame has dropped or finished rank 1.
		if res.BestMu < 0.4 || res.Best == nil {
			t.Fatalf("store best μ %v below rank 2's clean Done 0.4", res.BestMu)
		}
	})
}

// FuzzNewsDecode hardens the searchers' news decoder: it must return an
// error or a valid solution, never panic.
func FuzzNewsDecode(f *testing.F) {
	prob := testProblem(f, fuzzy.WirePower, 10, 2006)
	place := layout.NewRandom(prob.Ckt, prob.Cfg.NumRows, rng.New(6))
	f.Add(encodeNews(nil))
	f.Add(encodeNews(encodeSolution(0.6, place)))
	f.Add([]byte{1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, p, err := decodeNews(prob, data)
		if err == nil && p != nil {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted news carries an invalid placement: %v", err)
			}
		}
	})
}

// FuzzDoneStatsDecode hardens the Done frame's exchange-stats decoder: an
// accepted blob is exactly the fixed header plus its announced samples.
func FuzzDoneStatsDecode(f *testing.F) {
	prob := testProblem(f, fuzzy.WirePower, 10, 2006)
	place := layout.NewRandom(prob.Ckt, prob.Cfg.NumRows, rng.New(7))
	st := searcherStats{adopted: 3, roundNs: []int64{1, 2, 3}}
	frame := encodeDone(5, 0.5, place, &st)
	f.Add(frame[len(frame)-8-8*len(st.roundNs):])
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeDoneStats(data)
		if err != nil {
			return
		}
		if len(data) != 8+8*len(got.roundNs) {
			t.Fatalf("accepted %d-byte blob announcing %d samples", len(data), len(got.roundNs))
		}
	})
}
