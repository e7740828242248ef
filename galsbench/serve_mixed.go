package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"gals/internal/service"
	"gals/internal/workload"
)

const (
	// serveWindow is the instruction window of every /v1/run request.
	serveWindow = 20_000
	// primeSeeds warm requests per benchmark are computed in set-up.
	primeSeeds = 2
	// warmShare of the scheduled ops repeat a primed request.
	warmShare = 0.8
	// clients is the number of closed-loop clients, each on its own
	// connection.
	clients = 2
	// recheckCold cold responses are recomputed after the op phase.
	recheckCold = 20
)

// server is one in-process service behind a loopback HTTP listener.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan struct{}
}

// spanHeader carries the client's span id and op id to the server side of
// a traced request, so the handler's span nests under the HTTP round trip.
const spanHeader = "X-Galsbench-Span"

// startServer starts a service with its cache at dir and serves its
// Handler on a loopback port. With tr set, every request gets a
// "service.Handler" span.
func startServer(dir string, tr *tracer) (*server, error) {
	svc, err := service.New(service.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, opID := -1, -1
			fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &parent, &opID)
			if parent < 0 {
				inner.ServeHTTP(w, r)
				return
			}
			tr.do("service.Handler", parent, opID, func() { inner.ServeHTTP(w, r) })
		})
	}
	s := &server{svc: svc, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// stop shuts the listener, waits for the serving goroutine and closes the
// service.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.svc.Shutdown(ctx, s.http)
	<-s.done
}

// client is one closed-loop client with its own connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tp, Timeout: time.Minute}, url: url}
}

// run POSTs req to /v1/run and decodes the result. With tr set, the round
// trip is an "http.run" span whose id rides the request to the handler.
func (c *client) run(req service.RunRequest, tr *tracer, parent, opID int) (service.RunResult, error) {
	var out service.RunResult
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hr, err := http.NewRequest(http.MethodPost, c.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	id := tr.start("http.run", parent, opID)
	defer tr.end(id)
	if tr != nil {
		hr.Header.Set(spanHeader, fmt.Sprintf("%d/%d", id, opID))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/v1/run: %s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	return out, json.Unmarshal(blob, &out)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// plain strips the flags that say how a result was served, leaving what
// was computed.
func plain(r service.RunResult) service.RunResult {
	r.Cached, r.Deduped = false, false
	return r
}

func sameResult(a, b service.RunResult) bool {
	x, _ := json.Marshal(plain(a))
	y, _ := json.Marshal(plain(b))
	return bytes.Equal(x, y)
}

// primed returns the warm request set: primeSeeds seeds per benchmark.
func primed() []service.RunRequest {
	var reqs []service.RunRequest
	for k := 0; k < primeSeeds; k++ {
		for _, s := range workload.Suite() {
			reqs = append(reqs, service.RunRequest{Bench: s.Name, Mode: "phase", Window: serveWindow, Seed: int64(42 + k)})
		}
	}
	return reqs
}

// serveSetup starts a fresh service and computes every primed request
// through it: what a server pays before it answers warm traffic.
func serveSetup(dir string, tr *tracer) (*server, []service.RunResult, error) {
	srv, err := startServer(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.url)
	defer c.close()
	reqs := primed()
	res := make([]service.RunResult, len(reqs))
	for i, r := range reqs {
		if res[i], err = c.run(r, tr, -1, -1); err != nil {
			srv.stop()
			return nil, nil, err
		}
	}
	return srv, res, nil
}

// scheduled is one op of the seeded serve schedule.
type scheduled struct {
	warm int // index into the primed set, or -1 for a cold request
	req  service.RunRequest
}

// scheduler hands out the seeded op schedule in order. The sequence of
// requests depends only on the seed; which client sends which one depends
// on timing. Cold requests get seeds no primed request and no earlier op
// uses, so each one simulates.
type scheduler struct {
	mu    sync.Mutex
	rng   *rand.Rand
	specs []workload.Spec
	reqs  []service.RunRequest
	n     int
}

func newScheduler(seed uint64) *scheduler {
	return &scheduler{rng: rand.New(rand.NewPCG(seed, 0x5e77e)), specs: workload.Suite(), reqs: primed()}
}

// next returns the index and request of the next op.
func (s *scheduler) next() (int, scheduled) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.n
	s.n++
	if s.rng.Float64() < warmShare {
		w := s.rng.IntN(len(s.reqs))
		return i, scheduled{warm: w, req: s.reqs[w]}
	}
	b := s.specs[s.rng.IntN(len(s.specs))]
	return i, scheduled{warm: -1, req: service.RunRequest{
		Bench: b.Name, Mode: "phase", Window: serveWindow, Seed: 1_000_000 + int64(i),
	}}
}

// serveMixed is the serve_mixed workload: two closed-loop HTTP clients
// sending a seeded mix of warm (cached) and cold (simulated, then stored)
// /v1/run requests to an in-process service.
func serveMixed(e env) (*outcome, error) {
	out := &outcome{}
	var srv *server
	var primedRes []service.RunResult
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			srv.stop()
		}
		dir, err := e.scratch("cache")
		if err != nil {
			return nil, err
		}
		var serr error
		out.stats.setups = append(out.stats.setups, timeIt(func() { srv, primedRes, serr = serveSetup(dir, e.tr) }))
		if serr != nil {
			return nil, serr
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	sched := newScheduler(e.seed)
	traced := func(i int) bool { return e.tr != nil && i%2 == 1 }
	var mu sync.Mutex
	// Each request holds gate for reading; a speed-reference sample holds
	// it for writing, so it runs only while no request is in flight.
	var gate sync.RWMutex
	e.ref.quiet = &gate
	cold := make(map[int]scheduled)
	coldRes := make(map[int]service.RunResult)
	var wg sync.WaitGroup
	a0 := totalAlloc()
	t0 := time.Now()
	deadline := t0.Add(e.budget)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(srv.url)
			defer cl.close()
			for time.Now().Before(deadline) {
				i, s := sched.next()
				var res service.RunResult
				var err error
				gate.RLock()
				id := e.tr.start("op", -1, i)
				d := e.pert.timeOp(func() {
					if traced(i) {
						res, err = cl.run(s.req, e.tr, id, i)
					} else {
						res, err = cl.run(s.req, nil, -1, -1)
					}
				})
				e.tr.end(id)
				gate.RUnlock()
				o := op{dur: d, cold: s.warm < 0, traced: traced(i)}
				var bad string
				switch {
				case err != nil:
					bad = fmt.Sprintf("serve_mixed op %d: %v", i, err)
				case s.warm >= 0 && !sameResult(res, primedRes[s.warm]):
					bad = fmt.Sprintf("serve_mixed op %d: warm %s seed %d differs from the response that stored it", i, s.req.Bench, s.req.Seed)
				case s.warm >= 0 && !res.Cached:
					bad = fmt.Sprintf("serve_mixed op %d: warm %s seed %d was not served from the cache", i, s.req.Bench, s.req.Seed)
				case s.warm < 0 && (res.Cached || res.Instructions != serveWindow):
					bad = fmt.Sprintf("serve_mixed op %d: cold %s seed %d: cached=%v instructions=%d", i, s.req.Bench, s.req.Seed, res.Cached, res.Instructions)
				}
				if o.cold {
					o.insts = res.Instructions
				}
				e.ref.tick()
				mu.Lock()
				out.stats.attempted++
				out.stats.ops = append(out.stats.ops, o)
				if o.cold {
					cold[i], coldRes[i] = s, res
				}
				if bad != "" {
					out.stats.fail("%s", bad)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.stats.elapsed = time.Since(t0)
	out.stats.allocBytes = totalAlloc() - a0
	n := out.stats.attempted

	// Recompute a seeded sample of cold responses on a cache-less service.
	ref, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(e.seed, 0xc01d))
	for k, checked := 0, 0; k < 100*recheckCold && checked < recheckCold; k++ {
		i := rng.IntN(n)
		s, ok := cold[i]
		if !ok {
			continue
		}
		checked++
		want, err := ref.Run(context.Background(), s.req)
		if err != nil {
			ref.Close()
			return nil, err
		}
		if !sameResult(coldRes[i], want) {
			out.stats.fail("serve_mixed op %d: cold %s seed %d differs from its recomputation", i, s.req.Bench, s.req.Seed)
		}
	}
	ref.Close()
	if e.tr == nil {
		return out, nil
	}
	out.layers = overhead(out.stats.ops)
	st := srv.svc.Stats()
	out.layers["service.dedup_ratio"] = metric{float64(st.DedupHits) / float64(n+len(primedRes)), "ratio"}
	cs := srv.svc.Cache().Stats()
	out.layers["resultcache.hit_ratio"] = metric{float64(cs.Hits) / float64(cs.Hits+cs.Misses), "ratio"}
	specs := workload.Suite()
	lp := &layerPass{e: e, window: serveWindow, specs: specs, order: newOrder(e.seed, len(specs)),
		recStats: srv.svc.Recordings().Stats(), srv: srv, primeReqs: primed(), primeRes: primedRes}
	if err := lp.run(out.layers); err != nil {
		return nil, err
	}
	return out, nil
}
