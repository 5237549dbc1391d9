package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"memento/internal/api"
	"memento/internal/config"
	"memento/internal/machine"
	"memento/internal/store"
	"memento/internal/workload"
)

// serviceWorkload is service-mix: an in-process mementod (store + api over
// httptest) driven by a closed loop of one client per CPU, one connection
// each. Work comes in rounds on a fresh server. A round's write phase
// submits every job of the miss universe once, in a seeded order; its read
// phase then resubmits hitsPerMiss seeded picks per miss, which the result
// cache serves. Every round therefore does the same work whatever the seed.
type serviceWorkload struct {
	cfg      config.Machine
	universe []jobSpec
	rounds   int

	// Latencies (ms) of the timed phase, by class, and the host time of
	// its write and read phases.
	miss, hit         []float64
	missWall, hitWall time.Duration
	// Per-layer observations of the traced phase.
	queueWait, execCompare, execRun, notifyLag []float64
	resultBytes                                []float64
	hitRatio                                   float64
	samplesPerRound                            int
}

// hitsPerMiss is the number of cache-hit resubmissions a round makes per
// miss. No traffic data for the daemon exists, so the mix is chosen for
// what it measures. Misses are gated by their own latency (op_p50_ms);
// hits only through jobs_per_s, which they move as far as the read phase
// is a share of the round. A hit's time is mostly the server re-encoding
// the stored result (47 KB of indented JSON on average) for the submit and
// the GET response; at 120 hits per miss the read phase takes about three
// quarters of a round on a 2-vCPU host. README.md gives the measurements.
// The self-test keeps a few hits per miss.
func hitsPerMiss(tiny bool) int {
	if tiny {
		return 4
	}
	return 120
}

// jobSpec is one job of the miss universe.
type jobSpec struct {
	id   string
	spec store.JobSpec
}

// serviceProfiles are the workloads service jobs name (the self-test uses
// three).
func serviceProfiles(tiny bool) []workload.Profile {
	ps := workload.Profiles()
	if tiny {
		return ps[:3]
	}
	return ps
}

// serviceUniverse lists the distinct cache-miss jobs: per workload a
// compare (warm-restore path), and per stack a cold_start run and a run
// with a timeline (the probed cold-machine path, streaming samples).
func serviceUniverse(tiny bool) []jobSpec {
	var u []jobSpec
	for _, p := range serviceProfiles(tiny) {
		u = append(u, jobSpec{"compare/" + p.Name, store.JobSpec{Kind: store.KindCompare, Workload: p.Name}})
		for _, s := range stacks {
			u = append(u,
				jobSpec{fmt.Sprintf("run/%s/%s/cold_start", p.Name, s), store.JobSpec{Kind: store.KindRun, Workload: p.Name, Stack: s.String(), ColdStart: true}},
				jobSpec{fmt.Sprintf("run/%s/%s/timeline", p.Name, s), store.JobSpec{Kind: store.KindRun, Workload: p.Name, Stack: s.String(), TimelineInterval: timelineInterval}})
		}
	}
	return u
}

func (w *serviceWorkload) setup(o *options, tr *tracer, rep *report) error {
	w.cfg = config.Default()
	w.universe = serviceUniverse(o.tiny)
	traces := genTraces(tr)
	// Warm the process-wide snapshot cache the way a long-running daemon
	// would be warm: first use of every setup the miss jobs restore.
	type warmup struct {
		name string
		opt  machine.Options
	}
	var warmups []warmup
	for _, r := range allRuns(serviceProfiles(o.tiny)) {
		for _, cold := range []bool{false, true} {
			warmups = append(warmups, warmup{r.name, machine.Options{Stack: r.stack, ColdStart: cold}})
		}
	}
	return forEach(warmups, func(wu warmup) error {
		id := tr.begin("setup.machine.RunWarm", wu.name, 0)
		defer tr.end(id)
		_, err := machine.RunWarm(w.cfg, traces[wu.name], wu.opt)
		return err
	})
}

// server is one mementod instance.
type server struct {
	st  *store.Store
	srv *httptest.Server
}

// startServer starts a daemon with the default options, except that its
// queue is at least one job per CPU deep: the closed loop of one client per
// CPU never has more jobs in flight, so no submission is refused with a
// 429 on a host with many CPUs.
func startServer(cfg config.Machine) *server {
	st := store.New(cfg, store.Options{QueueDepth: max(16, runtime.NumCPU())})
	return &server{st: st, srv: httptest.NewServer(api.New(st).Handler())}
}

func (s *server) close() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.st.Close(ctx)
}

// plan is one round's jobs, as universe indices: the misses in a seeded
// permutation, then the hits, seeded picks among them.
type plan struct {
	misses, hits []int
}

func newPlan(seed int64, round, n, hits int) plan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	p := plan{misses: rng.Perm(n), hits: make([]int, hits)}
	for i := range p.hits {
		p.hits[i] = rng.Intn(n)
	}
	return p
}

// observed is what a client saw of one job.
type observed struct {
	view     store.JobView
	digest   string
	samples  int
	latency  time.Duration
	terminal time.Time
	getBytes int
}

// client is one closed-loop client with its own connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: base,
	}
}

// do submits one job, follows its SSE stream to the terminal frame, then
// reads its result.
func (c *client) do(spec store.JobSpec, tr *tracer) (observed, error) {
	var ob observed
	body, err := json.Marshal(spec)
	if err != nil {
		return ob, err
	}
	t0 := time.Now()
	root := tr.begin("service.job", "", 0)
	defer tr.end(root)
	id := tr.begin("api.submit", "", root)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return ob, fmt.Errorf("submit: %w", err)
	}
	err = readJSON(resp, &ob.view, http.StatusCreated, http.StatusOK)
	tr.end(id)
	if err != nil {
		return ob, fmt.Errorf("submit: %w", err)
	}
	tr.setJob(root, ob.view.ID)
	tr.setJob(id, ob.view.ID)

	id = tr.begin("api.events", ob.view.ID, root)
	ob.samples, ob.terminal, err = c.follow(ob.view.ID)
	tr.end(id)
	if err != nil {
		return ob, fmt.Errorf("events %s: %w", ob.view.ID, err)
	}

	id = tr.begin("api.get", ob.view.ID, root)
	resp, err = c.http.Get(c.base + "/v1/jobs/" + ob.view.ID)
	if err != nil {
		return ob, fmt.Errorf("get %s: %w", ob.view.ID, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	ob.latency = time.Since(t0)
	if err != nil {
		return ob, fmt.Errorf("get %s: %w", ob.view.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return ob, fmt.Errorf("get %s: HTTP %d", ob.view.ID, resp.StatusCode)
	}
	ob.getBytes = len(raw)
	if err := json.Unmarshal(raw, &ob.view); err != nil {
		return ob, fmt.Errorf("get %s: %w", ob.view.ID, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, ob.view.Result); err != nil {
		return ob, fmt.Errorf("result of %s: %w", ob.view.ID, err)
	}
	sum := sha256.Sum256(compact.Bytes())
	ob.digest = hex.EncodeToString(sum[:])
	return ob, nil
}

// follow reads the job's SSE stream until its terminal frame, counting
// sample frames, and returns when the terminal frame arrived.
func (c *client) follow(id string) (samples int, at time.Time, err error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, at, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, at, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch store.EventType(ev) {
		case store.EventSample:
			samples++
		case store.EventDone, store.EventFailed, store.EventCanceled:
			at = time.Now()
			// Drain the rest of the stream so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return samples, at, err
		}
	}
	if err := sc.Err(); err != nil {
		return samples, at, err
	}
	return samples, at, errors.New("stream ended without a terminal event")
}

// readJSON decodes a response body into v, requiring one of the statuses.
func readJSON(resp *http.Response, v any, want ...int) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, s := range want {
		if resp.StatusCode == s {
			return json.Unmarshal(raw, v)
		}
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
}

// check compares an observed job with its expected key, digest and
// sample count.
func (ob observed) check(js jobSpec, hit bool, want jobExp, ok bool) error {
	switch {
	case !ok:
		return fmt.Errorf("job %s: no expected values", js.id)
	case ob.view.Status != store.StatusDone:
		return fmt.Errorf("job %s: status %s (%s)", js.id, ob.view.Status, ob.view.Error)
	case ob.view.CacheHit != hit:
		return fmt.Errorf("job %s: cache_hit %v, want %v", js.id, ob.view.CacheHit, hit)
	case ob.view.Key != want.Key:
		return fmt.Errorf("job %s: key %s, want %s", js.id, ob.view.Key, want.Key)
	case ob.digest != want.Digest:
		return fmt.Errorf("job %s: result digest %s, want %s", js.id, ob.digest, want.Digest)
	case !hit && ob.samples != want.Samples:
		return fmt.Errorf("job %s: %d sample frames, want %d", js.id, ob.samples, want.Samples)
	}
	return nil
}

// runRound runs one round on a fresh server: the write phase, then the
// read phase. It returns the round's host time and jobs completed.
func (w *serviceWorkload) runRound(o *options, tr *tracer, rep *report) (time.Duration, int, error) {
	s := startServer(w.cfg)
	p := newPlan(o.seed, w.rounds, len(w.universe), hitsPerMiss(o.tiny)*len(w.universe))
	w.rounds++
	clients := make([]*client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient(s.srv.URL)
	}
	missWall, misses, samples := w.drive(clients, p.misses, false, tr, rep)
	hitWall, hits, _ := w.drive(clients, p.hits, true, tr, rep)
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	w.missWall += missWall
	w.hitWall += hitWall
	if tr != nil {
		var m store.MetricsSnapshot
		resp, err := http.Get(s.srv.URL + "/metrics")
		if err == nil {
			err = readJSON(resp, &m, http.StatusOK)
		}
		if err != nil {
			s.close()
			return 0, 0, fmt.Errorf("metrics: %w", err)
		}
		w.hitRatio = m.CacheHitRate
		w.samplesPerRound = samples
	}
	return missWall + hitWall, misses + hits, s.close()
}

// drive runs the given universe jobs, each client taking the next job when
// its last one is done, and checks every one. It returns the host time
// from the first submit to the last result, the jobs that passed and the
// SSE sample frames they streamed.
func (w *serviceWorkload) drive(clients []*client, jobs []int, hit bool, tr *tracer, rep *report) (time.Duration, int, int) {
	var mu sync.Mutex
	next, done, samples := 0, 0, 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				js := w.universe[jobs[next]]
				next++
				mu.Unlock()
				ob, err := c.do(js.spec, tr)
				if err == nil {
					want, known := rep.exp.Service[js.id]
					err = ob.check(js, hit, want, known)
				}
				mu.Lock()
				rep.op(err)
				if err == nil {
					done++
					samples += ob.samples
					w.observe(ob, js, hit, tr != nil)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), done, samples
}

// observe records one successful job's timings.
func (w *serviceWorkload) observe(ob observed, js jobSpec, hit, traced bool) {
	lat := ms(ob.latency)
	if hit {
		w.hit = append(w.hit, lat)
	} else {
		w.miss = append(w.miss, lat)
	}
	if !traced {
		return
	}
	w.resultBytes = append(w.resultBytes, float64(ob.getBytes))
	v := ob.view
	if hit || v.StartedAt == nil || v.FinishedAt == nil {
		return
	}
	w.queueWait = append(w.queueWait, ms(v.StartedAt.Sub(v.CreatedAt)))
	exec := ms(v.FinishedAt.Sub(*v.StartedAt))
	if js.spec.Kind == store.KindCompare {
		w.execCompare = append(w.execCompare, exec)
	} else {
		w.execRun = append(w.execRun, exec)
	}
	w.notifyLag = append(w.notifyLag, ms(ob.terminal.Sub(*v.FinishedAt)))
}

func (w *serviceWorkload) timed(o *options, d time.Duration, tr *tracer, rep *report) (phase, error) {
	var ph phase
	w.miss, w.hit = nil, nil
	w.missWall, w.hitWall = 0, 0
	rounds := 0
	for t0 := time.Now(); time.Since(t0) < d; rounds++ {
		cpu0 := cpuTime()
		wall, jobs, err := w.runRound(o, tr, rep)
		if err != nil {
			return ph, err
		}
		ph.add(wall, cpuTime()-cpu0, float64(jobs))
	}
	ph.opTimes = w.miss
	rep.printf("service-mix: jobs_per_s %.3f over %d rounds (write phases %.2f s, read phases %.2f s); miss latency %s; hit latency %s",
		ph.throughput(), rounds, w.missWall.Seconds(), w.hitWall.Seconds(), describe(w.miss, "ms"), describe(w.hit, "ms"))
	return ph, nil
}

func (w *serviceWorkload) layers(o *options, tr *tracer, ph phase, out map[string]float64, rep *report) error {
	out["workload.gen_s"] = tr.total("setup.workload.GenerateCached").Seconds()
	out["api.submit_ms"] = median(tr.durationsMs("api.submit"))
	out["api.get_ms"] = median(tr.durationsMs("api.get"))
	out["store.queue_wait_ms"] = median(w.queueWait)
	out["store.exec_ms.compare"] = median(w.execCompare)
	out["store.exec_ms.run"] = median(w.execRun)
	out["api.notify_lag_ms"] = median(w.notifyLag)
	var total float64
	for _, b := range w.resultBytes {
		total += b
	}
	out["api.result_kb"] = total / float64(len(w.resultBytes)) / 1024
	out["store.cache_hit_ratio"] = w.hitRatio
	out["telemetry.samples"] = float64(w.samplesPerRound)
	return nil
}

// recordService runs every job of the universe once, serially, and
// records its key, result digest and sample-frame count.
func recordService(cfg config.Machine) (map[string]jobExp, error) {
	s := startServer(cfg)
	c := newClient(s.srv.URL)
	out := map[string]jobExp{}
	for _, js := range serviceUniverse(false) {
		ob, err := c.do(js.spec, nil)
		if err == nil && ob.view.Status != store.StatusDone {
			err = fmt.Errorf("status %s: %s", ob.view.Status, ob.view.Error)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("job %s: %w", js.id, err)
		}
		out[js.id] = jobExp{Key: ob.view.Key, Digest: ob.digest, Samples: ob.samples}
	}
	c.http.CloseIdleConnections()
	return out, s.close()
}
