package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload in one mode.
type result struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

// sample is one iteration of a reader's loop.
type sample struct {
	req   int
	ok    bool          // the reply arrived and matched the oracle
	lat   time.Duration // the timed op: send -> decoded -> post-joined
	iter  time.Duration // the whole iteration: the op and its oracle check
	bytes int
	slice int // the slice of the window the iteration ran in
	cycle int // the shuffle the iteration belongs to
}

// reader is one closed-loop connection: the next request is sent only after
// the previous reply was decoded, post-joined and checked. Requests go out
// in seeded shuffles of the whole list, so every statement is sent equally
// often whatever the seed. A reader keeps its place in the shuffle between
// calls of run, so the window can be cut into slices.
type reader struct {
	c       *wire.Client
	w       *workload
	o       oracle
	rng     *rand.Rand
	perm    []int
	pos     int
	cycle   int
	samples []sample
}

func newReader(c *wire.Client, w *workload, o oracle, seed int64) *reader {
	return &reader{c: c, w: w, o: o, rng: rand.New(rand.NewSource(seed))}
}

// readOp is the timed unit of a reader: send the statement, receive and
// decode the subdatabase and, when the server shipped a plan, post-join it
// client-side (the paper's Table 3 pipeline).
func readOp(c *wire.Client, sql string) (*db.Result, *db.ResultSet, error) {
	res, err := c.Exec(sql)
	if err != nil || res.PostJoinPlan == nil {
		return res, nil, err
	}
	pj, err := db.ExecutePostJoinPlan(res)
	return res, pj, err
}

// run sends requests until the deadline or, when cycles > 0, until that many
// more shuffles are complete.
func (r *reader) run(slice int, deadline time.Time, cycles int) {
	last := r.cycle + cycles
	for {
		if r.pos == len(r.perm) {
			if r.perm != nil {
				r.cycle++
			}
			r.perm, r.pos = r.rng.Perm(len(r.w.requests)), 0
		}
		if cycles > 0 && r.cycle == last {
			return
		}
		t0 := time.Now()
		if cycles == 0 && !t0.Before(deadline) {
			return
		}
		i := r.perm[r.pos]
		r.pos++
		req := r.w.requests[i]
		before := r.c.BytesRead()
		res, pj, err := readOp(r.c, req.sql)
		lat := time.Since(t0)
		ok := err == nil && r.o.check(r.w, req, res, pj)
		r.samples = append(r.samples, sample{i, ok, lat, time.Since(t0), r.c.BytesRead() - before, slice, r.cycle})
	}
}

func (r *reader) failed() (n int) {
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// writerStats is what the open-loop writer observed.
type writerStats struct {
	lags  []time.Duration // how late each send left; one per commit sent
	acks  []time.Duration // ack latency from the scheduled send time
	acked []int           // commit numbers the server acknowledged
}

// runWriter sends one INSERT every 1/writerHz seconds on its own connection,
// whether or not the server keeps up: a commit that is due while the
// previous one is still in flight leaves late, and its latency counts from
// when it was due, so a stall shows in every commit it delayed. A commit that
// falls due while paused is set is not sent (see measure).
func runWriter(c *wire.Client, w *workload, rng *rand.Rand, paused *atomic.Bool, stop <-chan struct{}) writerStats {
	var st writerStats
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / writerHz)
		select {
		case <-stop:
			return st
		case <-time.After(time.Until(due)):
		}
		if paused.Load() {
			continue
		}
		st.lags = append(st.lags, time.Since(due))
		if _, err := c.Exec(w.insert(i, rng)); err != nil {
			continue
		}
		st.acks = append(st.acks, time.Since(due))
		st.acked = append(st.acked, i)
	}
}

// env is one set-up server with its connected, warmed-up clients.
type env struct {
	srv     *server
	dataDir string
	readers []*wire.Client
	writer  *wire.Client
}

// discard tears an env down without ceremony; it is safe after the server
// was already stopped.
func (e *env) discard() {
	for _, c := range e.readers {
		c.Close()
	}
	if e.writer != nil {
		e.writer.Close()
	}
	e.srv.stop(syscall.SIGKILL)
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// warmCycles is the warm-up: every connection sends the whole request list
// this many times, which fills the result cache, builds the columnar frames
// and sizes the heap. It is a fixed amount of work, not a fixed time, so
// that setup_s measures the system.
const warmCycles = 2

// setUp starts the server for w, connects the clients and warms them up.
func setUp(l layout, bin string, w *workload, o oracle, conns int, seed int64) (*env, error) {
	e := &env{}
	args := w.serverArgs
	if w.durable {
		dir, err := os.MkdirTemp(l.out, "data-")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
		args = append(append([]string{}, args...), "-data-dir", dir)
	}
	srv, err := startServer(bin, args)
	if err != nil {
		if e.dataDir != "" {
			os.RemoveAll(e.dataDir)
		}
		return nil, err
	}
	e.srv = srv
	nReaders := conns
	if w.writer {
		// The writer's connection is idle most of the time; it takes the
		// place of a reader, but never of the last one.
		if nReaders > 1 {
			nReaders--
		}
		if e.writer, err = wire.Dial(srv.addr); err != nil {
			e.discard()
			return nil, err
		}
	}
	for i := 0; i < nReaders; i++ {
		c, err := wire.Dial(srv.addr)
		if err != nil {
			e.discard()
			return nil, err
		}
		e.readers = append(e.readers, c)
	}
	var wg sync.WaitGroup
	warm := make([]*reader, len(e.readers))
	for i, c := range e.readers {
		warm[i] = newReader(c, w, o, seed+int64(1000+i))
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			r.run(0, time.Time{}, warmCycles)
		}(warm[i])
	}
	wg.Wait()
	for _, r := range warm {
		if n := r.failed(); n > 0 {
			e.discard()
			return nil, fmt.Errorf("%s: %d of %d warm-up ops failed: %s", w.name, n, len(r.samples), srv.stderr.String())
		}
	}
	return e, nil
}

// setUps is how many times a run sets up; setup_s is the median.
const setUps = 3

// sliceLen is how long the readers run between two timings of the host
// reference: short enough that the reference around a slice says how fast
// the host was during it, long enough that the reference (about 80 ms, during
// which the server idles) takes under a tenth of the window.
const sliceLen = time.Second

// slice is one stretch of the window between two timings of the reference.
type slice struct {
	// cpuSlow is how much more CPU time than nominal the reference needed
	// around the slice; slow is how much longer than on the reference host
	// things took in it, which is more by the time the host stole.
	cpuSlow, slow float64
	cpu           time.Duration // server CPU time over the slice
}

// stretch times one stretch of work for the normalisation: begin it with
// the reference as timed just before, end it with the reference as timed
// just after.
type stretch struct {
	ref         float64
	busy, steal time.Duration
}

func begin(ref float64) stretch {
	busy, steal := hostCPU()
	return stretch{ref, busy, steal}
}

// end returns the two slowdowns of the stretch (see slice).
func (s stretch) end(busy, steal time.Duration, ref float64) (cpuSlow, slow float64) {
	cpuSlow = (s.ref + ref) / 2
	slow = cpuSlow
	if ran := busy - s.busy; ran > 0 {
		slow *= 1 + float64(steal-s.steal)/float64(ran)
	}
	return cpuSlow, slow
}

// measure drives the readers, and the writer if the workload has one, for
// `window`, slice by slice; ref is the reference as timed just before.
func measure(e *env, w *workload, readers []*reader, seed int64, window time.Duration, ref float64) (slices []slice, ws writerStats, err error) {
	var writerDone sync.WaitGroup
	// The writer skips the commits that fall due while the reference runs:
	// they would be timed against a saturated client and disturb the
	// reference.
	var paused atomic.Bool
	stopWriter := make(chan struct{})
	if w.writer {
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			ws = runWriter(e.writer, w, rand.New(rand.NewSource(seed+99)), &paused, stopWriter)
		}()
	}
	// ws is a named result so that it holds what the writer returned by the
	// time the deferred wait is over.
	defer writerDone.Wait()
	defer close(stopWriter)

	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		cpu0, err := e.srv.cpu()
		if err != nil {
			return nil, ws, err
		}
		st := begin(ref)
		end := time.Now().Add(sliceLen)
		if end.After(deadline) {
			end = deadline
		}
		var wg sync.WaitGroup
		for _, r := range readers {
			wg.Add(1)
			go func(r *reader) {
				defer wg.Done()
				r.run(len(slices), end, 0)
			}(r)
		}
		wg.Wait()
		busy, steal := hostCPU()
		cpu1, err := e.srv.cpu()
		if err != nil {
			return nil, ws, err
		}
		paused.Store(true)
		ref = hostRef()
		paused.Store(false)
		cpuSlow, slow := st.end(busy, steal, ref)
		slices = append(slices, slice{cpuSlow, slow, cpu1 - cpu0})
	}
	return slices, ws, nil
}

// tail returns the latency reported as latency_p99_ms: the 99th percentile
// or, when fewer than ten samples lie beyond that, the highest percentile
// that has ten beyond it. A quantile with fewer samples above it is set by a
// handful of ops and does not repeat from run to run.
func tail(sorted []float64) float64 {
	const beyond = 10
	if i := len(sorted) - 1 - beyond; i >= 0 && percentile(sorted, 0.99) > sorted[i] {
		return sorted[i]
	}
	return percentile(sorted, 0.99)
}

// runUntraced is the end-to-end measurement: a resultdbd child process
// driven over loopback TCP for `window`, with tracing off everywhere.
func runUntraced(l layout, bin string, w *workload, o oracle, conns int, seed int64, window time.Duration) (*result, error) {
	var e *env
	var setupRaw, setupNorm []float64
	// The first timing builds the reference's working set and wakes the
	// CPUs; it is not used.
	hostRef()
	ref := hostRef()
	for i := 0; i < setUps; i++ {
		st := begin(ref)
		t0 := time.Now()
		var err error
		if e, err = setUp(l, bin, w, o, conns, seed); err != nil {
			return nil, err
		}
		t := time.Since(t0).Seconds()
		busy, steal := hostCPU()
		ref = hostRef()
		_, slow := st.end(busy, steal, ref)
		setupRaw = append(setupRaw, t)
		setupNorm = append(setupNorm, t/slow)
		if i < setUps-1 {
			e.discard()
		}
	}
	defer e.discard()

	readers := make([]*reader, len(e.readers))
	for i, c := range e.readers {
		readers[i] = newReader(c, w, o, seed+int64(i))
	}
	self0 := selfCPU()
	_, steal0 := hostCPU()
	t0 := time.Now()
	slices, ws, err := measure(e, w, readers, seed, window, ref)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	self1 := selfCPU()
	_, steal1 := hostCPU()
	rss, err := e.srv.peakRSS()
	if err != nil {
		return nil, err
	}

	// Every sample is scaled by the slowdown of the slice it ran in; the
	// raw.<name> values are the same estimators over the unscaled samples.
	r := &result{Metrics: map[string]metric{}}
	var lats, rawLats []float64
	perReq := make([][]float64, len(w.requests)) // bytes per statement
	var throughput, rawThroughput float64
	for _, rd := range readers {
		r.Attempted += len(rd.samples)
		r.Failed += rd.failed()
		// The connection's throughput is the median over its full cycles,
		// each of which is the same set of statements, so that neither the
		// mix of a slice nor a burst of outside interference moves it.
		var rates, rawRates []float64
		for i := 0; i < len(rd.samples); {
			var ok int
			var t, rawT float64
			j := i
			for ; j < len(rd.samples) && rd.samples[j].cycle == rd.samples[i].cycle; j++ {
				s := rd.samples[j]
				rawT += s.iter.Seconds()
				t += s.iter.Seconds() / slices[s.slice].slow
				if !s.ok {
					continue
				}
				ok++
				rawLats = append(rawLats, ms(s.lat))
				lats = append(lats, ms(s.lat)/slices[s.slice].slow)
				perReq[s.req] = append(perReq[s.req], float64(s.bytes))
			}
			if j-i == len(w.requests) {
				rates, rawRates = append(rates, float64(ok)/t), append(rawRates, float64(ok)/rawT)
			}
			i = j
		}
		if len(rates) == 0 { // a window too short for one full cycle
			var rawT float64
			for _, s := range rd.samples {
				rawT += s.iter.Seconds()
			}
			rates = []float64{float64(len(rd.samples)-rd.failed()) / rawT}
			rawRates = rates
		}
		throughput += median(rates)
		rawThroughput += median(rawRates)
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("%s: no read op succeeded (%d attempted): %s", w.name, r.Attempted, e.srv.stderr.String())
	}
	sort.Float64s(lats)
	sort.Float64s(rawLats)
	r.Samples = len(lats)
	ops := float64(len(lats))
	var cpu, rawCPU float64
	var slows, cpuSlows []float64
	for _, sl := range slices {
		rawCPU += ms(sl.cpu)
		cpu += ms(sl.cpu) / sl.cpuSlow
		slows, cpuSlows = append(slows, sl.slow), append(cpuSlows, sl.cpuSlow)
	}
	// Payload sizes differ 500-fold between statements, so the mean over
	// whichever ops fit the window would move with the seed; averaging the
	// per-statement means weighs every statement once.
	var bytesPerOp []float64
	for _, b := range perReq {
		if len(b) > 0 {
			bytesPerOp = append(bytesPerOp, mean(b))
		}
	}
	timed := func(name string, v, raw float64, unit string) {
		r.set(name, v, unit)
		r.set("raw."+name, raw, unit)
	}
	timed("setup_s", median(setupNorm), median(setupRaw), "s")
	timed("throughput_ops_s", throughput, rawThroughput, "1/s")
	timed("latency_p50_ms", percentile(lats, 0.50), percentile(rawLats, 0.50), "ms")
	timed("latency_p99_ms", tail(lats), tail(rawLats), "ms")
	timed("server_cpu_ms_per_op", cpu/ops, rawCPU/ops, "ms")
	r.set("wire_bytes_per_op", mean(bytesPerOp), "bytes")
	r.set("server_peak_rss_mb", float64(rss)/(1<<20), "MiB")
	r.set("gen.client_cpu_ms_per_op", ms(self1-self0)/ops, "ms")
	r.set("gen.host_slowdown", median(slows), "ratio")
	r.set("gen.host_cpu_slowdown", median(cpuSlows), "ratio")
	r.set("gen.host_steal_share", (steal1-steal0).Seconds()/(elapsed.Seconds()*float64(runtime.NumCPU())), "ratio")

	if w.writer {
		r.Attempted += len(ws.lags)
		r.Failed += len(ws.lags) - len(ws.acked)
		lost, err := crashCheck(bin, w, e, ws.acked)
		if err != nil {
			return nil, err
		}
		r.Failed += lost
		acks := make([]float64, len(ws.acks))
		for i, a := range ws.acks {
			acks[i] = ms(a)
		}
		sort.Float64s(acks)
		lags := make([]float64, len(ws.lags))
		for i, g := range ws.lags {
			lags[i] = ms(g)
		}
		r.set("write_ack_p50_ms", percentile(acks, 0.50), "ms")
		r.set("write_ack_p99_ms", percentile(acks, 0.99), "ms")
		r.set("gen.writer_lag_ms", mean(lags), "ms")
		r.set("acked_writes_lost", float64(lost), "count")
	}
	r.set("error_rate", float64(r.Failed)/float64(r.Attempted), "ratio")
	return r, nil
}

// crashCheck kills the server without warning, restarts it on the same data
// directory and returns how many acknowledged commits are not all there.
func crashCheck(bin string, w *workload, e *env, acked []int) (lost int, err error) {
	e.srv.stop(syscall.SIGKILL)
	srv, err := startServer(bin, append(append([]string{}, w.serverArgs...), "-data-dir", e.dataDir))
	if err != nil {
		return 0, fmt.Errorf("restart after kill: %w", err)
	}
	defer srv.stop(syscall.SIGKILL)
	c, err := wire.Dial(srv.addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	res, err := c.Exec(w.writerRows())
	if err != nil {
		return 0, fmt.Errorf("read back writer rows: %w", err)
	}
	have := map[int64]bool{}
	for _, row := range res.First().Rows {
		have[row[0].Int()] = true
	}
	for _, i := range acked {
		for j := 0; j < rowsPerCommit; j++ {
			if !have[int64(danglingBase+i*rowsPerCommit+j)] {
				lost++
				break
			}
		}
	}
	return lost, nil
}
