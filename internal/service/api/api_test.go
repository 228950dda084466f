package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simevo/internal/gen"
	"simevo/internal/netlist"
	"simevo/internal/service/jobs"
)

func newTestServer(t *testing.T) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr := jobs.NewManager(jobs.Options{Workers: 2, CacheSize: 16})
	srv := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv, mgr
}

func smallBench(t *testing.T) string {
	t.Helper()
	ckt, err := gen.Generate(gen.Params{
		Name: "api-t", Gates: 60, DFFs: 4, PIs: 5, POs: 5, Depth: 6, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, ckt); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// submit posts a job spec and decodes the response view.
func submit(t *testing.T, srv *httptest.Server, spec jobs.Spec, wantStatus int) jobs.View {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("submit returned %d, want %d", resp.StatusCode, wantStatus)
	}
	var view jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// getJob fetches a job view.
func getJob(t *testing.T, srv *httptest.Server, id string) jobs.View {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s returned %d", id, resp.StatusCode)
	}
	var view jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// pollDone polls a job until it is terminal.
func pollDone(t *testing.T, srv *httptest.Server, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view := getJob(t, srv, id)
		if view.State.Terminal() {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.View{}
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string     `json:"status"`
		Pool   jobs.Stats `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.Status != "ok" || body.Pool.Workers != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, body)
	}
}

func TestBenchmarks(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Benchmarks []BenchInfo `json:"benchmarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Benchmarks) != 5 {
		t.Fatalf("catalog has %d entries, want 5", len(body.Benchmarks))
	}
	for _, b := range body.Benchmarks {
		if b.Name == "" || b.Cells <= 0 || b.Nets <= 0 {
			t.Fatalf("degenerate benchmark entry: %+v", b)
		}
	}
}

func TestSubmitStatusAndCache(t *testing.T) {
	srv, _ := newTestServer(t)
	spec := jobs.Spec{Bench: smallBench(t), Strategy: "serial", MaxIters: 25,
		IncludePlacement: true}

	view := submit(t, srv, spec, http.StatusAccepted)
	if view.ID == "" {
		t.Fatal("no job id")
	}
	done := pollDone(t, srv, view.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.BestMu <= 0 || len(done.Result.Placement) == 0 {
		t.Fatalf("bad result: %+v", done.Result)
	}

	// Identical resubmit: HTTP 200 with the cached result.
	again := submit(t, srv, spec, http.StatusOK)
	if again.State != jobs.StateDone || again.Result == nil || !again.Result.Cached {
		t.Fatalf("resubmit not cached: %+v", again)
	}
	if again.Result.BestMu != done.Result.BestMu {
		t.Fatalf("cached μ %.6f != original %.6f", again.Result.BestMu, done.Result.BestMu)
	}

	// The job list contains both.
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobs.View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list.Jobs))
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	for name, body := range map[string]string{
		"bad json":       `{"circuit":`,
		"unknown field":  `{"circuit":"s1196","strategy":"serial","warp":9}`,
		"bad strategy":   `{"circuit":"s1196","strategy":"quantum"}`,
		"no circuit":     `{"strategy":"serial"}`,
		"rows over cap":  `{"circuit":"s1196","strategy":"serial","rows":1000000000}`,
		"procs over cap": `{"circuit":"s1196","strategy":"type2","procs":100000}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/stream"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	view jobs.View
}

// readEvents consumes an SSE stream until it closes, forwarding each event.
func readEvents(t *testing.T, resp *http.Response, out chan<- sseEvent) {
	defer close(out)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var view jobs.View
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &view); err != nil {
				t.Errorf("bad SSE payload: %v", err)
				return
			}
			out <- sseEvent{name: name, view: view}
		}
	}
}

func TestStreamAndCancel(t *testing.T) {
	srv, _ := newTestServer(t)

	// A budget that cannot finish quickly keeps the stream live until the
	// DELETE lands.
	view := submit(t, srv, jobs.Spec{Bench: smallBench(t), Strategy: "serial",
		MaxIters: 10_000_000}, http.StatusAccepted)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	events := make(chan sseEvent, 64)
	go readEvents(t, resp, events)

	// Wait for a progress event proving the run is advancing, then cancel.
	var sawProgress bool
	timeout := time.After(60 * time.Second)
	var cancelled bool
	var last sseEvent
	for !cancelled {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed early; last event %q state %s", last.name, last.view.State)
			}
			last = ev
			if ev.name == "progress" && ev.view.Progress != nil && ev.view.Progress.Iter > 0 {
				sawProgress = true
				req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
				if err != nil {
					t.Fatal(err)
				}
				dresp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				dresp.Body.Close()
				if dresp.StatusCode != http.StatusAccepted {
					t.Fatalf("cancel returned %d", dresp.StatusCode)
				}
				cancelled = true
			}
		case <-timeout:
			t.Fatal("no progress event before timeout")
		}
	}
	if !sawProgress {
		t.Fatal("stream produced no progress events")
	}

	// The stream must end with a "canceled" terminal event carrying the
	// best-so-far result.
	var terminal *sseEvent
	timeout = time.After(60 * time.Second)
	for terminal == nil {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed without a terminal event")
			}
			if ev.view.State.Terminal() {
				terminal = &ev
			}
		case <-timeout:
			t.Fatal("no terminal event before timeout")
		}
	}
	if terminal.name != "canceled" || terminal.view.State != jobs.StateCanceled {
		t.Fatalf("terminal event %q state %s, want canceled", terminal.name, terminal.view.State)
	}
	if terminal.view.Result == nil || terminal.view.Result.BestMu <= 0 {
		t.Fatalf("cancelled job lost its best-so-far result: %+v", terminal.view.Result)
	}
	if _, ok := <-events; ok {
		t.Fatal("stream kept emitting after the terminal event")
	}
}

func TestStreamCompletedJob(t *testing.T) {
	srv, _ := newTestServer(t)
	view := submit(t, srv, jobs.Spec{Bench: smallBench(t), Strategy: "serial",
		MaxIters: 10}, http.StatusAccepted)
	pollDone(t, srv, view.ID)

	// Streaming an already-finished job yields exactly the terminal event.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 8)
	go readEvents(t, resp, events)
	ev, ok := <-events
	if !ok || ev.name != "done" || ev.view.Result == nil {
		t.Fatalf("expected immediate done event, got %+v (ok=%v)", ev, ok)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/j-424242", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown returned %d", resp.StatusCode)
	}
}

// TestParallelJobOverHTTP runs a Type II job through the full HTTP path.
func TestParallelJobOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	view := submit(t, srv, jobs.Spec{Bench: smallBench(t), Strategy: "type2",
		MaxIters: 6, Procs: 2}, http.StatusAccepted)
	done := pollDone(t, srv, view.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("type2 job finished %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.BestMu <= 0 || done.Result.VirtualTimeMS <= 0 {
		t.Fatalf("bad parallel result: %+v", done.Result)
	}
	if done.Spec.Strategy != "type2" {
		t.Fatalf("normalized strategy %q", done.Spec.Strategy)
	}
}
