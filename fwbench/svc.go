package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flashwalker/client"
	"flashwalker/internal/blob"
	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/snapshot"
)

const (
	// svcClients closed-loop clients share svcClients connections, one per
	// CPU of the machine the benchmark was sized on; the daemon runs at
	// its default two workers.
	svcClients = 2
	// svcWalks is the walk count of every job (TT-S, default cadence).
	svcWalks = 20_000
	// replayEvery: every replayEvery-th job is also replayed from seq 0.
	replayEvery = 4
	// The measured loop runs in svcRecoverReps segments, each followed by
	// a set-up and kill/restart cycle, so recover_s is a median.
	svcRecoverReps = 3
	// readyTimeout bounds how long a daemon may take to answer /healthz,
	// and killTimeout how long a recovery job may run before its first
	// snapshot.
	readyTimeout = 30 * time.Second
	killTimeout  = 60 * time.Second
)

// objectStore is the S3-style object store the benchmark hosts for the
// daemon: blob.Handler over an in-memory store, behind a recordingStore.
// It lives in the benchmark's process, so it survives a SIGKILL of the
// daemon.
type objectStore struct {
	rec   *recordingStore
	srv   *http.Server
	url   string
	done  chan struct{}
	close func() // idempotent
}

func startObjectStore(onPut func(key string, data []byte)) (*objectStore, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rec := newRecordingStore(blob.NewMem())
	rec.onPut = onPut
	s := &objectStore{rec: rec, srv: &http.Server{Handler: blob.Handler(rec)},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	s.close = sync.OnceFunc(func() {
		_ = s.srv.Close() // only listener/connection close errors
		<-s.done
	})
	return s, nil
}

// daemon is one flashwalkerd child process.
type daemon struct {
	cmd    *exec.Cmd
	api    *client.Client
	exited chan struct{}
}

// daemons tracks every daemon a run started, so all are gone at exit.
type daemons struct {
	bin  string
	hc   *http.Client
	mu   sync.Mutex
	list []*daemon
}

func (ds *daemons) start(storeURL string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(ds.bin, "-addr", addr, "-store", storeURL)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting flashwalkerd: %w", err)
	}
	d := &daemon{cmd: cmd, api: client.New("http://"+addr, ds.hc), exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: every exit is a kill or a stop
		close(d.exited)
	}()
	ds.mu.Lock()
	ds.list = append(ds.list, d)
	ds.mu.Unlock()
	return d, nil
}

// killAll SIGKILLs every daemon still running and waits for each.
func (ds *daemons) killAll() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for _, d := range ds.list {
		d.kill()
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// ready polls /healthz until the daemon answers.
func (d *daemon) ready(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-d.exited:
			return errors.New("flashwalkerd exited before it was ready")
		default:
		}
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := d.api.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("flashwalkerd not ready after %v: %w", readyTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if already gone
	<-d.exited
}

// stop shuts the daemon down gracefully, killing it if that hangs.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// teeKey marks a request context whose response body is copied into the
// *bytes.Buffer it carries, so stream bytes can be compared exactly.
type teeKey struct{}

type teeTransport struct{ base http.RoundTripper }

func (t teeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if buf, ok := r.Context().Value(teeKey{}).(*bytes.Buffer); ok && err == nil {
		resp.Body = teeBody{Reader: io.TeeReader(resp.Body, buf), Closer: resp.Body}
	}
	return resp, err
}

type teeBody struct {
	io.Reader
	io.Closer
}

// streamRead is one read of a job's stream from seq 0 to its trailer.
type streamRead struct {
	records uint64
	first   time.Time // first record received
	end     time.Time // trailer received
	bytes   bytes.Buffer
}

// readStream reads a job's whole stream, checking that seq is gapless
// from 0 and that the stream ends with a "done" trailer whose next_seq is
// the record count.
func readStream(ctx context.Context, c *client.Client, id string) (*streamRead, error) {
	out := &streamRead{}
	s, err := c.Stream(context.WithValue(ctx, teeKey{}, &out.bytes), id, 0)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	defer s.Close()
	for {
		rec, ok := s.Next()
		if !ok {
			break
		}
		if rec.Seq != out.records {
			return nil, fmt.Errorf("stream %s: seq %d after %d records", id, rec.Seq, out.records)
		}
		if out.records == 0 {
			out.first = time.Now()
		}
		out.records++
	}
	out.end = time.Now()
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	end := s.End()
	switch {
	case end == nil:
		return nil, fmt.Errorf("stream %s: truncated after %d records, no trailer", id, out.records)
	case end.State != client.StateDone:
		return nil, fmt.Errorf("stream %s: job ended %s: %s", id, end.State, end.Error)
	case end.NextSeq != out.records:
		return nil, fmt.Errorf("stream %s: trailer next_seq %d after %d records", id, end.NextSeq, out.records)
	}
	return out, nil
}

// checkDone fetches a finished job and checks its result against the
// stream that delivered it and against the reference result. The daemon
// sends the stream's trailer before it publishes the job's terminal
// state, so a job may still read "running" for a moment after its
// trailer; checkDone polls until it does not, and returns when the last
// (answering) GET was sent.
func checkDone(ctx context.Context, c *client.Client, id string, records uint64, want *client.JobResult) (*client.JobResult, time.Time, error) {
	var st client.JobStatus
	var sent time.Time
	deadline := time.Now().Add(readyTimeout)
	for {
		var err error
		sent = time.Now()
		if st, err = c.Get(ctx, id); err != nil {
			return nil, sent, fmt.Errorf("get %s: %w", id, err)
		}
		if st.State != client.StateQueued && st.State != client.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			return nil, sent, fmt.Errorf("job %s: still %s %v after its done trailer", id, st.State, readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	if st.State != client.StateDone || st.Result == nil {
		return nil, sent, fmt.Errorf("job %s: state %s after its done trailer (%s)", id, st.State, st.Error)
	}
	r := st.Result
	if uint64(r.Completed+r.DeadEnded) != records {
		return nil, sent, fmt.Errorf("job %s: %d records streamed, result has %d completed + %d dead-ended",
			id, records, r.Completed, r.DeadEnded)
	}
	if *r != *want {
		return nil, sent, fmt.Errorf("job %s: result differs from the reference run:\n got %+v\nwant %+v", id, *r, *want)
	}
	return r, sent, nil
}

// svcRun is the state of one svc-durable run.
type svcRun struct {
	tr   *tracer
	rep  *report
	ds   *daemons
	spec client.JobSpec
	ref  *client.JobResult // the spec's result, from the in-process run

	mu         sync.Mutex // guards rep and the totals below during the loop
	hops       uint64
	liveRecs   uint64
	replayRecs uint64
}

func (s *svcRun) op(err error) {
	s.mu.Lock()
	s.rep.op(err)
	s.mu.Unlock()
}

// job runs one closed-loop iteration: submit, read the live stream to its
// trailer, fetch the result, and on replay iterations read the stream
// again from seq 0, which must repeat the live bytes exactly.
func (s *svcRun) job(ctx context.Context, c *client.Client, n int, replay bool) error {
	t0 := time.Now()
	st, err := c.Submit(ctx, s.spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	live, err := readStream(ctx, c, st.ID)
	if err != nil {
		return err
	}
	res, t2, err := checkDone(ctx, c, st.ID, live.records, s.ref)
	if err != nil {
		return err
	}
	t3 := time.Now()
	var again *streamRead
	if replay {
		if again, err = readStream(ctx, c, st.ID); err != nil {
			return err
		}
		if !bytes.Equal(again.bytes.Bytes(), live.bytes.Bytes()) {
			return fmt.Errorf("job %s: replay from seq 0 differs from the live stream (%d vs %d bytes)",
				st.ID, again.bytes.Len(), live.bytes.Len())
		}
	}
	s.tr.add("http.submit", n, "job", t0, t1)
	s.tr.add("stream.live", n, "job", t1, live.end)
	s.tr.add("first_frame", n, "job", t0, live.first)
	s.tr.add("job", n, "", t0, live.end)
	s.tr.add("http.get", n, "job", t2, t3)
	if again != nil {
		s.tr.add("stream.replay", n, "job", t3, again.end)
	}
	if n == setupJob {
		return nil
	}
	s.mu.Lock()
	s.hops += res.Hops
	s.liveRecs += live.records
	if again != nil {
		s.replayRecs += again.records
	}
	s.mu.Unlock()
	return nil
}

// runService measures the svc-durable workload:
//
//  1. an untimed in-process run of the job spec, the reference every
//     daemon result must equal;
//  2. host an object store, exec flashwalkerd on it and run one warm-up
//     job to its trailer (a setup_s sample);
//  3. svcClients closed-loop clients submit jobs for the measured seconds,
//     in svcRecoverReps segments. After each segment a recovery cycle
//     (recoverOnce) on a fresh store takes one more setup_s sample and
//     one recover_s sample, so those samples spread over the same window
//     as the jobs.
func runService(ctx context.Context, o options, tr *tracer, rep *report) error {
	if o.daemon == "" {
		return errors.New("svc-durable needs -daemon (the flashwalkerd binary)")
	}
	d, err := harness.DatasetByName("TT-S")
	if err != nil {
		return err
	}
	g, err := d.Gen()
	if err != nil {
		return err
	}
	spec := client.JobSpec{Kind: client.KindFlashWalker, Graph: d.Name, NumWalks: svcWalks, Seed: o.seed}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), spec.NumWalks, spec.Seed)
	e, err := core.NewEngine(g, rc)
	if err != nil {
		return err
	}
	inproc, err := e.RunContext(ctx)
	if err != nil {
		return fmt.Errorf("in-process reference run: %w", err)
	}
	ref := &client.JobResult{
		SimTimeNS: int64(inproc.Time), Started: inproc.Started, Completed: inproc.Completed,
		DeadEnded: inproc.DeadEnded, Hops: inproc.Hops, HopRate: inproc.HopRate(),
		FlashReadBytes: inproc.Flash.ReadBytes, FlashWriteBytes: inproc.Flash.WriteBytes,
		QueryCacheHits: inproc.QueryCacheHits, QueryCacheMisses: inproc.QueryCacheMisses,
	}

	tp := &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients}
	defer tp.CloseIdleConnections()
	ds := &daemons{bin: o.daemon, hc: &http.Client{Transport: teeTransport{base: tp}}}
	defer ds.killAll()
	s := &svcRun{tr: tr, rep: rep, ds: ds, spec: spec, ref: ref}

	// The loop store's Put hook captures the first full snapshot of a loop
	// job and that job's first delta, for the per-layer codec timings.
	var capMu sync.Mutex
	var capID string
	var capFull, capDelta []byte
	capture := func(key string, data []byte) {
		id, n, ok := snapKey(key)
		if !ok {
			return
		}
		capMu.Lock()
		defer capMu.Unlock()
		switch {
		case n == 0 && capFull == nil:
			capID, capFull = id, data
		case n == 1 && id == capID && capDelta == nil:
			capDelta = data
		}
	}
	store, err := startObjectStore(capture)
	if err != nil {
		return err
	}
	defer store.close()
	dmn, err := s.warmDaemon(ctx, store)
	if err != nil {
		return err
	}
	capMu.Lock()
	capFull, capDelta, capID = nil, nil, ""
	capMu.Unlock()

	// Closed loop in svcRecoverReps segments, each followed by a set-up
	// and kill/restart cycle, while the loop's daemon idles.
	pid := dmn.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	st0 := store.rec.snapshot()
	var iter atomic.Int64
	var loop float64
	var killSnap []byte
	for i := 1; i <= svcRecoverReps; i++ {
		start := time.Now()
		deadline := start.Add(time.Duration(o.seconds) * time.Second / svcRecoverReps)
		var wg sync.WaitGroup
		for c := 0; c < svcClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					n := int(iter.Add(1))
					s.op(s.job(ctx, dmn.api, n, n%replayEvery == 0))
				}
			}()
		}
		wg.Wait()
		loop += since(start)
		data, err := s.recoverOnce(ctx, -i)
		rep.op(err)
		if err == nil {
			killSnap = data
		}
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	blobs := store.rec.snapshot().minus(st0)
	dmn.stop()
	store.close()

	jobs := tr.loop("job")
	v := rep.values
	v["setup_s"] = median(tr.durations("setup"))
	v["peak_rss_mib"] = rss
	v["wall_mhops_per_s"] = ratio(float64(s.hops), loop) / 1e6
	v["jobs_per_s"] = ratio(float64(len(jobs)), loop)
	v["job_p50_s"] = median(jobs)
	v["job_p75_s"] = quantile(jobs, jobTailPercentile/100.0)
	v["first_frame_p50_s"] = median(tr.loop("first_frame"))
	v["recover_s"] = median(tr.durations("recover"))
	fmt.Fprintf(os.Stderr, "fwbench: %d jobs in %.2fs; tail rule allows p%v\n",
		len(jobs), loop, tailPercentile(len(jobs)))
	if !o.traced {
		return nil
	}

	nj := float64(len(jobs))
	v["trace.wall_mhops_per_s"] = v["wall_mhops_per_s"]
	v["trace.jobs_per_s"] = v["jobs_per_s"]
	modelMetrics(v, inproc)
	v["http.submit_p50_s"] = median(tr.loop("http.submit"))
	v["http.get_p50_s"] = median(tr.loop("http.get"))
	v["stream.live_recs_per_s"] = ratio(float64(s.liveRecs), sum(tr.loop("stream.live")))
	v["stream.replay_recs_per_s"] = ratio(float64(s.replayRecs), sum(tr.loop("stream.replay")))
	v["daemon.cpu_s_per_job"] = ratio(cpu1-cpu0, nj)
	for _, op := range []string{"put", "append", "get"} {
		v["blob."+op+".n"] = ratio(float64(blobs[op].N), nj)
		v["blob."+op+".bytes"] = ratio(float64(blobs[op].Bytes), nj)
		v["blob."+op+"_s"] = ratio(blobs[op].Busy.Seconds(), nj)
	}
	v["blob.delete.n"] = ratio(float64(blobs["delete"].N), nj)
	v["blob.list.n"] = ratio(float64(blobs["list"].N), nj)
	v["blob.snap_puts_per_job"] = ratio(float64(blobs["put snapshots"].N), nj)
	v["blob.snap_bytes_per_job"] = ratio(float64(blobs["put snapshots"].Bytes), nj)
	v["blob.spool_bytes_per_job"] = ratio(float64(blobs["append streams"].Bytes), nj)
	v["blob.journal_puts_per_job"] = ratio(float64(blobs["put jobs"].N), nj)
	v["recover.ready_s"] = median(tr.durations("recover.ready"))
	v["snapshot.full_bytes"] = float64(len(killSnap))
	v["snapshot.delta_bytes"] = float64(len(capDelta))
	return codecTimings(v, tr, g, killSnap, capFull, capDelta)
}

// warmDaemon execs flashwalkerd on store and runs one warm-up job to its
// trailer: one set-up sample.
func (s *svcRun) warmDaemon(ctx context.Context, store *objectStore) (*daemon, error) {
	t0 := time.Now()
	d, err := s.ds.start(store.url)
	if err != nil {
		return nil, err
	}
	if err := d.ready(ctx); err != nil {
		return nil, err
	}
	err = s.job(ctx, d.api, setupJob, false)
	s.op(err)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	s.tr.add("setup", setupJob, "", t0, time.Now())
	return d, nil
}

// recoverOnce sets up a daemon on a fresh store, submits a job, kills the
// daemon the moment the job's first full snapshot is stored, re-execs it
// on the same store, and reads the job's stream to its done trailer. It
// returns the snapshot container the daemon was killed after storing.
func (s *svcRun) recoverOnce(ctx context.Context, n int) ([]byte, error) {
	var mu sync.Mutex
	var victim *daemon
	var killedID string
	var killSnap []byte
	store, err := startObjectStore(func(key string, data []byte) {
		id, chain, ok := snapKey(key)
		mu.Lock()
		defer mu.Unlock()
		if ok && chain == 0 && victim != nil {
			killedID, killSnap = id, data
			victim.kill()
			victim = nil
		}
	})
	if err != nil {
		return nil, err
	}
	defer store.close()
	d, err := s.warmDaemon(ctx, store)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	mu.Lock()
	victim = d
	mu.Unlock()
	st, err := d.api.Submit(ctx, s.spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(killTimeout):
		return nil, fmt.Errorf("job %s stored no snapshot within %v", st.ID, killTimeout)
	}
	mu.Lock()
	id, snap := killedID, killSnap
	mu.Unlock()
	if id != st.ID {
		return nil, fmt.Errorf("killed on a snapshot of %q, want %q", id, st.ID)
	}
	// The crash point is the first full image: no delta may exist yet.
	if deltas, err := store.rec.inner.List("snapshots/" + id + ".d"); err != nil || len(deltas) > 0 {
		return nil, fmt.Errorf("job %s: deltas %v (err %v) stored before the first full snapshot", id, deltas, err)
	}

	t0 := time.Now()
	d2, err := s.ds.start(store.url)
	if err != nil {
		return nil, err
	}
	defer d2.stop()
	if err := d2.ready(ctx); err != nil {
		return nil, err
	}
	t1 := time.Now()
	rd, err := readStream(ctx, d2.api, id)
	if err != nil {
		return nil, fmt.Errorf("recovered %w", err)
	}
	if _, _, err := checkDone(ctx, d2.api, id, rd.records, s.ref); err != nil {
		return nil, fmt.Errorf("recovered %w", err)
	}
	s.tr.add("recover.ready", n, "recover", t0, t1)
	s.tr.add("recover", n, "", t0, rd.end)
	return snap, nil
}

// snapKey parses "snapshots/<id>.snap" (chain 0) and
// "snapshots/<id>.d<n>.snap" (delta n).
func snapKey(key string) (id string, chain int, ok bool) {
	rest, ok := strings.CutPrefix(key, "snapshots/")
	if !ok {
		return "", 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".snap")
	if !ok {
		return "", 0, false
	}
	if i := strings.LastIndex(rest, ".d"); i >= 0 {
		if _, err := fmt.Sscanf(rest[i+2:], "%d", &chain); err == nil && chain > 0 {
			return rest[:i], chain, true
		}
	}
	return rest, 0, true
}

// codecTimings times, in this process, the snapshot work a recovering
// daemon does: decoding the container it was killed after, applying a
// delta to its base, and rebuilding the engine from the image.
func codecTimings(v map[string]float64, tr *tracer, g *graph.Graph, full, base, delta []byte) error {
	for i := 0; i < recoverReps && full != nil; i++ {
		t0 := time.Now()
		var snap core.Snapshot
		if err := snapshot.Decode(full, snapKindCore, &snap); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := core.ResumeEngine(g, &snap, core.ResumeOptions{}); err != nil {
			return err
		}
		tr.add("snapshot.decode", -1, "recover", t0, t1)
		tr.add("core.resume", -1, "recover", t1, time.Now())
	}
	v["snapshot.decode_s"] = median(tr.durations("snapshot.decode"))
	v["core.resume_s"] = median(tr.durations("core.resume"))
	if base == nil || delta == nil {
		return nil
	}
	var b core.Snapshot
	if err := snapshot.Decode(base, snapKindCore, &b); err != nil {
		return err
	}
	var d core.SnapshotDelta
	if err := snapshot.Decode(delta, snapKindDelta, &d); err != nil {
		return err
	}
	for i := 0; i < recoverReps; i++ {
		t0 := time.Now()
		if _, err := core.ApplyDelta(&b, &d); err != nil {
			return err
		}
		tr.add("core.apply_delta", -1, "recover", t0, time.Now())
	}
	v["core.apply_delta_s"] = median(tr.durations("core.apply_delta"))
	return nil
}
