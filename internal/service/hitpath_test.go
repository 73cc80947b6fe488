package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"creditbus/internal/scenario"
)

// serveRun sends one POST /v1/run body straight through the server's
// handler, without a network round trip.
func serveRun(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func encodeSpec(t *testing.T, sp scenario.Spec) []byte {
	t.Helper()
	data, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHitPathAllocations pins the cost of a cache hit: it validates, keys
// and looks up, but never compiles. The spec has the shape of cbaload's
// default mix, an 8-core matrix TuA at ops 200 against a looping ue-mix
// population; compiling it builds every core's full trace (about 18 MB),
// and a hit must stay far below that.
func TestHitPathAllocations(t *testing.T) {
	const (
		replays     = 20
		maxPerHitKB = 256
	)
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := encodeSpec(t, scenario.Spec{
		Name:      "hit-cost",
		Cores:     8,
		Run:       scenario.RunWorkloads,
		Workloads: []scenario.Workload{{Core: 0, Name: "matrix", Ops: 200, Criticality: scenario.CritHigh}},
		Populations: []scenario.Population{
			{FromCore: 1, ToCore: 7, Name: "ue-mix", Loop: true, Seed: 2},
		},
		Seeds: scenario.Seeds{List: []uint64{1}},
	})
	if rec := serveRun(srv, body); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d\n%s", rec.Code, rec.Body)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replays; i++ {
		if rec := serveRun(srv, body); rec.Code != http.StatusOK {
			t.Fatalf("replay %d: %d\n%s", i, rec.Code, rec.Body)
		}
	}
	runtime.ReadMemStats(&after)

	if st := srv.Snapshot(); st.Hits != replays || st.Executions != 1 {
		t.Fatalf("replays must all hit: %+v", st)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / replays
	t.Logf("%d B allocated per hit", perHit)
	if perHit > maxPerHitKB<<10 {
		t.Fatalf("a cache hit allocated %d KiB, want under %d KiB: the hit path compiles again", perHit>>10, maxPerHitKB)
	}
}

// TestCacheCannotBypassValidation: Name and Seeds are outside the cache key,
// so a spec that is invalid only in those fields shares a valid spec's key.
// It must still be refused with invalid_spec, never served from the cache.
func TestCacheCannotBypassValidation(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	valid := testSpec("valid", 1, 5, 7)
	if rec := serveRun(srv, encodeSpec(t, valid)); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d\n%s", rec.Code, rec.Body)
	}
	validKey, err := valid.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	badName := valid
	badName.Name = "no/slashes"
	dupSeeds := valid
	dupSeeds.Seeds = scenario.Seeds{List: []uint64{5, 7, 5}}
	for name, sp := range map[string]scenario.Spec{"invalid name": badName, "duplicate seed": dupSeeds} {
		if key, err := sp.CacheKey(); err != nil || key != validKey {
			t.Fatalf("%s: key %s (%v), want the valid spec's key %s", name, key, err, validKey)
		}
		hits := srv.Snapshot().Hits
		rec := serveRun(srv, encodeSpec(t, sp))
		var apiErr APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
			t.Fatalf("%s: bad error body: %v\n%s", name, err, rec.Body)
		}
		if rec.Code != http.StatusBadRequest || apiErr.Code != ErrCodeInvalidSpec {
			t.Fatalf("%s: status %d code %q, want 400 %s", name, rec.Code, apiErr.Code, ErrCodeInvalidSpec)
		}
		if got := srv.Snapshot().Hits; got != hits {
			t.Fatalf("%s: hit counter moved %d → %d", name, hits, got)
		}
	}
}

// TestCompileErrorReachesJoiners: a compile failure on the branch that opened
// a flight is published through that flight, like an admission refusal, so
// a request that joined it while the compile ran is released with the error
// instead of waiting forever.
func TestCompileErrorReachesJoiners(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	boom := errors.New("compile failed")
	entered, release := make(chan struct{}), make(chan struct{})
	failing := func() (*scenario.Compiled, error) {
		close(entered)
		<-release
		return nil, boom
	}
	never := func() (*scenario.Compiled, error) {
		t.Error("a join compiled")
		return nil, boom
	}

	opened := make(chan error, 1)
	go func() {
		_, _, _, err := srv.startRun(failing, "k", 1)
		opened <- err
	}()
	<-entered
	_, cached, f, err := srv.startRun(never, "k", 1)
	if err != nil || cached || f == nil {
		t.Fatalf("join: cached %v flight %v err %v, want a flight to await", cached, f, err)
	}
	close(release)
	if err := <-opened; !errors.Is(err, boom) {
		t.Fatalf("submitter error %v, want %v", err, boom)
	}
	<-f.done
	if !errors.Is(f.err, boom) {
		t.Fatalf("joiner saw %v, want %v", f.err, boom)
	}
	if st := srv.Snapshot(); st.InFlight != 0 || st.CacheEntries != 0 || st.Executions != 0 {
		t.Fatalf("failed compile left state behind: %+v", st)
	}
}
