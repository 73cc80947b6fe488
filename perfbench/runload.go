package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"creditbus/internal/scenario"
	"creditbus/internal/service"
	"creditbus/internal/shard"
	"creditbus/internal/sim"
)

// resultFold builds a digest: FNV-1a over the big-endian shard.ResultDigest
// of each result, in schedule order — the same packed stream whose SHA-256
// is a campaign report's result_hash.
type resultFold struct {
	h      hash.Hash64
	n      int64
	cycles int64
}

func (f *resultFold) add(r sim.Result) {
	if f.h == nil {
		f.h = fnv.New64a()
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], shard.ResultDigest(r))
	f.h.Write(buf[:])
	f.n++
	f.cycles += r.WallCycles
}

func (f *resultFold) digest() digest {
	if f.h == nil {
		f.h = fnv.New64a()
	}
	return digest{Results: f.n, Digest: fmt.Sprintf("%016x", f.h.Sum64()), SimCycles: f.cycles}
}

// server is a service.Server behind a loopback listener, with the client
// the workload drives it through (at most Clients connections).
type server struct {
	srv       *service.Server
	hs        *http.Server
	served    chan error
	base      string
	client    *http.Client
	transport *http.Transport
}

func startServer(opts service.Options) (*server, error) {
	opts.Workers = Workers
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		transport: &http.Transport{
			MaxConnsPerHost:     Clients,
			MaxIdleConnsPerHost: Clients,
		},
	}
	s.client = &http.Client{Transport: s.transport, Timeout: failedLatencyMs * time.Millisecond}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, _, err := s.do(http.MethodGet, "/v1/healthz", nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, waits for the serve goroutine and drains the
// service's pool.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a straggling connection is cut by the deadline
	<-s.served
	s.transport.CloseIdleConnections()
	s.srv.Close()
}

// do sends one request and returns the status and body. A transport error
// or a read error is returned as err.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// errStatus reports a non-success response with its error envelope.
func errStatus(code int, body []byte) error {
	var ae service.APIError
	if json.Unmarshal(body, &ae) == nil && ae.Code != "" {
		return fmt.Errorf("status %d: %s: %s", code, ae.Code, ae.Message)
	}
	return fmt.Errorf("status %d", code)
}

func (s *server) stats() (service.Stats, error) {
	code, body, err := s.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return service.Stats{}, err
	}
	if code != http.StatusOK {
		return service.Stats{}, errStatus(code, body)
	}
	var st service.Stats
	err = json.Unmarshal(body, &st)
	return st, err
}

// serviceLayers reports the /v1/stats counter deltas since before.
func serviceLayers(s *server, before service.Stats, m metrics) error {
	after, err := s.stats()
	if err != nil {
		return err
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.set("service.hit_ratio", ratio, "ratio")
	m.set("service.executions", float64(after.Executions-before.Executions+after.JobUnitsDone-before.JobUnitsDone), "count")
	refused := after.Rejected + after.LoadShed + after.DeadlineExceeded - before.Rejected - before.LoadShed - before.DeadlineExceeded
	m.set("service.refused", float64(refused), "count")
	return nil
}

// runLoad is the closed-loop POST /v1/run workload shared by run-hot and
// run-cold: Clients clients each send their next request only after the
// previous reply, walking one schedule of specs.
type runLoad struct {
	b       *bench
	s       *server
	body    func(i int) ([]byte, error) // schedule entry i, encoded
	key     func(i int) int             // which checked entry schedule i is, or -1
	checked []scenario.Spec             // the checked entries, by key
	probe   []scenario.Spec             // specs the traced handler replay uses
	reps    int                         // handler replays over probe
	next    atomic.Int64                // schedule position; continues across loops

	mu       sync.Mutex
	captured map[int][]byte // first response body per checked key
	before   service.Stats  // counters at the end of set-up
}

func setupHot(b *bench) (fixture, error) {
	specs := hotSpecs(b.opts.seed)
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		var err error
		if bodies[i], err = sp.Encode(); err != nil {
			return nil, err
		}
	}
	s, err := startServer(service.Options{})
	if err != nil {
		return nil, err
	}
	// Warm the cache: every timed request is then a hit.
	for i, body := range bodies {
		code, resp, err := s.do(http.MethodPost, "/v1/run", body)
		if err == nil && code != http.StatusOK {
			err = errStatus(code, resp)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm %s: %w", specs[i].Name, err)
		}
	}
	n := len(specs)
	return newRunLoad(b, s, &runLoad{
		body:    func(i int) ([]byte, error) { return bodies[i%n], nil },
		key:     func(i int) int { return i % n },
		checked: specs,
		probe:   specs,
		reps:    b.sz.hotReps,
	})
}

// coldWarmIndex is the schedule index of run-cold's set-up request, far
// beyond any index a window reaches, so it shares no cache key with them.
const coldWarmIndex = 1 << 30

func setupCold(b *bench) (fixture, error) {
	seed, ops := b.opts.seed, b.sz.coldOps
	spec := func(i int) scenario.Spec { return coldSpec(seed, i, ops) }
	check := make([]scenario.Spec, b.sz.coldCheck)
	for i := range check {
		check[i] = spec(i)
	}
	s, err := startServer(service.Options{})
	if err != nil {
		return nil, err
	}
	warm, err := spec(coldWarmIndex).Encode()
	if err == nil {
		var code int
		var resp []byte
		if code, resp, err = s.do(http.MethodPost, "/v1/run", warm); err == nil && code != http.StatusOK {
			err = errStatus(code, resp)
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return newRunLoad(b, s, &runLoad{
		body: func(i int) ([]byte, error) { return spec(i).Encode() },
		key: func(i int) int {
			if i < len(check) {
				return i
			}
			return -1
		},
		checked: check,
		probe:   check,
		reps:    1,
	})
}

// newRunLoad completes l with its server and the counters the per-layer
// deltas start from.
func newRunLoad(b *bench, s *server, l *runLoad) (*runLoad, error) {
	before, err := s.stats()
	if err != nil {
		s.close()
		return nil, err
	}
	l.b, l.s, l.before, l.captured = b, s, before, map[int][]byte{}
	return l, nil
}

func (l *runLoad) close() { l.s.close() }

func (l *runLoad) loop(deadline time.Time, rec *recorder, tr *tracer) {
	var wg sync.WaitGroup
	for c := 0; c < Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(l.next.Add(1) - 1)
				l.request(i, rec, tr)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// request sends schedule entry i and records its outcome.
func (l *runLoad) request(i int, rec *recorder, tr *tracer) {
	req := int64(i)
	root := tr.open("request", 0, req)
	defer tr.close(root)
	start := time.Now()
	var (
		body []byte
		err  error
	)
	tr.timed("client.encode", root, req, func() { body, err = l.body(i) })
	if err != nil {
		rec.fail(err, l.b.log)
		return
	}
	var code int
	var resp []byte
	tr.timed("http.post_run", root, req, func() { code, resp, err = l.s.do(http.MethodPost, "/v1/run", body) })
	if err == nil && code != http.StatusOK {
		err = errStatus(code, resp)
	}
	if err != nil {
		rec.fail(err, l.b.log)
		return
	}
	var rr service.RunResponse
	tr.timed("client.decode", root, req, func() { err = json.Unmarshal(resp, &rr) })
	if err != nil {
		rec.fail(fmt.Errorf("decode response: %w", err), l.b.log)
		return
	}
	d := time.Since(start)
	var cycles int64
	for _, r := range rr.Runs {
		cycles += r.Result.WallCycles
	}
	if k := l.key(i); k >= 0 {
		l.mu.Lock()
		if l.captured[k] == nil {
			l.captured[k] = resp
		}
		l.mu.Unlock()
	}
	rec.ok(d, int64(len(rr.Runs)), cycles)
}

// check proves serving changed nothing: each checked entry's response must
// be byte-identical, per seed in canonical snapshot form, to a direct
// Compiled.RunSeed — cbaload -verify's check. Entries no timed request
// reached are requested now.
func (l *runLoad) check() (digest, error) {
	var fold resultFold
	for k, sp := range l.checked {
		l.mu.Lock()
		body := l.captured[k]
		l.mu.Unlock()
		if body == nil {
			req, err := sp.Encode()
			if err != nil {
				return digest{}, err
			}
			code, resp, err := l.s.do(http.MethodPost, "/v1/run", req)
			if err == nil && code != http.StatusOK {
				err = errStatus(code, resp)
			}
			if err != nil {
				return digest{}, fmt.Errorf("%s: %w", sp.Name, err)
			}
			body = resp
		}
		var rr service.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return digest{}, fmt.Errorf("%s: decode response: %w", sp.Name, err)
		}
		compiled, err := sp.Compile()
		if err != nil {
			return digest{}, err
		}
		if len(rr.Runs) != len(compiled.Seeds) {
			return digest{}, fmt.Errorf("%s: %d runs for %d seeds", sp.Name, len(rr.Runs), len(compiled.Seeds))
		}
		for j, seed := range compiled.Seeds {
			direct, err := compiled.RunSeed(seed)
			if err != nil {
				return digest{}, err
			}
			want, err := json.Marshal(scenario.Snap(direct))
			if err != nil {
				return digest{}, err
			}
			got, err := json.Marshal(rr.Runs[j].Result)
			if err != nil {
				return digest{}, err
			}
			if rr.Runs[j].Seed != seed || !bytes.Equal(want, got) {
				return digest{}, fmt.Errorf("%s seed %d: served result differs from direct run\nserved: %s\ndirect: %s", sp.Name, seed, got, want)
			}
			fold.add(direct)
		}
	}
	return fold.digest(), nil
}

func (l *runLoad) layers(tr *tracer, m metrics) error {
	if err := serviceLayers(l.s, l.before, m); err != nil {
		return err
	}
	if err := probeHandler(l.b, tr, m, l.probe, l.reps); err != nil {
		return err
	}
	// The shard and engine probes run the probe specs, each with its own
	// seed schedule, as a two-shard campaign.
	return probeEngine(l.b, tr, m, shard.CampaignSpec{Name: "probe", Scenarios: l.probe, Shards: 2}, 4)
}
