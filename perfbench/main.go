// Command perfbench is the repository benchmark. It stands sbmlserved up
// in-process from seeded inputs, drives one workload from a single
// process through a loopback listener (open loop, then closed loop),
// checks every response against a direct-call oracle and prints the
// end-to-end metrics. With -trace 1 it also replays a fixed sample of
// the workload down a layer ladder, writes the spans to a file and
// prints the per-layer metrics. README.md describes the workloads, the
// metrics and how to read a ladder.
//
//	go run . -workload search -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/store"
)

// workload is one traffic mix and the system it runs against.
type workload struct {
	name  string
	gen   func(seed int64) *inputs
	setup func(in *inputs, dir string) (*system, error)
	// rate is the open-loop arrival rate: about a third of the parent
	// commit's closed-loop throughput on a 2-core box, low enough that
	// queueing does not amplify the box's own speed swings, high enough
	// that a 24 s run collects 1000 samples of each route.
	rate float64
	// limit is the p99 latency the open loop must meet.
	limit time.Duration
	// reps is how many times a run sets the system up; setup_s is the
	// median. Cheap set-ups repeat more so the median holds still.
	reps int
}

var workloads = []*workload{
	{name: "search", gen: func(s int64) *inputs { return genSearch("search", s) }, setup: newNode, rate: 80, limit: 100 * time.Millisecond, reps: 3},
	{name: "engine", gen: genEngine, setup: newNode, rate: 350, limit: 50 * time.Millisecond, reps: 9},
	{name: "ingest", gen: genIngest, setup: newDurable, rate: 180, limit: 100 * time.Millisecond, reps: 9},
	{name: "cluster_search", gen: func(s int64) *inputs { return genSearch("cluster_search", s) }, setup: newCluster, rate: 63, limit: 150 * time.Millisecond, reps: 3},
}

// rounds is how many open-loop/closed-loop rounds the load alternates.
const rounds = 8

// lagBound is the generator lateness (p99) past which a run is marked
// invalid: its arrivals no longer follow the schedule. Latency is timed
// from the due time, so lateness never hides latency; on two cores the
// generator shares the CPU with the clients and the server, and the
// scheduler's 10 ms time slice puts its p99 near 10-20 ms.
const lagBound = 25 * time.Millisecond

// metric is one named number of the result line.
type metric struct {
	name, unit string
}

// endToEnd and perLayer list the metrics of the result line with
// -trace 0 and -trace 1, as BENCHMARK.json names them.
var endToEnd = []metric{
	{"setup_s", "s"}, {"heap_mb", "MB"}, {"throughput_rps", "req/s"},
	{"service_ms", "ms"}, {"ok_frac", "ratio"},
}

var perLayer = []metric{
	{"serve.search_self_ms", "ms"}, {"serve.compose_self_ms", "ms"}, {"serve.simulate_self_ms", "ms"},
	{"serve.check_self_ms", "ms"}, {"serve.write_self_ms", "ms"},
	{"serve.search_socket_ms", "ms"}, {"serve.compose_socket_ms", "ms"}, {"serve.simulate_socket_ms", "ms"},
	{"serve.check_socket_ms", "ms"}, {"serve.write_socket_ms", "ms"},
	{"serve.query_cache_hit_ratio", "ratio"},
	{"sbml.parse_ms", "ms"}, {"sbml.write_ms", "ms"},
	{"corpus.compile_ms", "ms"}, {"corpus.search_p50_ms", "ms"}, {"corpus.search_p95_ms", "ms"},
	{"corpus.retrieve_ms", "ms"}, {"corpus.score_ms", "ms"}, {"corpus.merge_ms", "ms"},
	{"corpus.add_ms", "ms"}, {"corpus.remove_ms", "ms"},
	{"core.compose_ms", "ms"}, {"core.conflicts_per_compose", "count"},
	{"sim.ode_ms", "ms"}, {"sim.ssa_ms", "ms"}, {"sim.points_per_run", "count"},
	{"mc2.check_ms", "ms"},
	{"store.append_p50_ms", "ms"}, {"store.append_p95_ms", "ms"}, {"store.fsyncs_per_write", "count"},
	{"store.wal_bytes_per_user_byte", "ratio"}, {"store.snapshots_in_run", "count"},
	{"store.recover_s", "s"}, {"store.records_replayed", "count"},
	{"cluster.self_ms", "ms"}, {"cluster.hop_p50_ms", "ms"}, {"cluster.slowest_hop_ms", "ms"},
	{"cluster.hops_per_search", "count"},
	{"runtime.allocs_per_req", "count"}, {"runtime.alloc_bytes_per_req", "B"}, {"runtime.gc_cpu_frac", "ratio"},
	{"harness.lag_p99_ms", "ms"}, {"harness.trace_overhead", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: search, engine, ingest or cluster_search")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of measured load (two thirds open loop, one third closed loop, in 8 alternating rounds)")
	flag.IntVar(&trace, "trace", 0, "1 runs the layer ladder and prints per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file and the ingest data dir")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// env describes where a run measured.
func env(dir string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s data_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsName(dir))
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6a656a63: "virtiofs", 0x01021997: "9p", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func run(o options) (*result, error) {
	var w *workload
	for _, c := range workloads {
		if c.name == o.workload {
			w = c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Printf("env %s\n", env(o.out))
	if w.name == "ingest" {
		fmt.Printf("fsync policy %s (fsync latency of virtualised storage, not of a bare device)\n", store.FsyncAlways)
	}
	in := w.gen(o.seed)
	fmt.Printf("inputs fingerprint %s\n", in.fingerprint())

	dir := filepath.Join(o.out, fmt.Sprintf("%s-%d-data", w.name, o.seed))
	if w.name == "ingest" {
		if err := buildDataDir(in, dir); err != nil {
			return nil, fmt.Errorf("build data dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}

	or := &oracle{}
	d := newLoadgen("", in, or, nproc)
	defer d.client.CloseIdleConnections()
	sys, twin, reps, heapMB, err := setUp(w, in, dir, d)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	d.base = sys.front.url
	if w.name == "cluster_search" {
		if twin, err = buildCorpus(in.models); err != nil {
			return nil, err
		}
	}
	if err := verifyPool(in, twin, d, or); err != nil {
		return nil, err
	}
	if !o.trace {
		// The oracle now holds every verified answer; only the ladder
		// needs the twin again. Releasing it leaves the server's own heap
		// for the collector to pace, as in sbmlserved.
		twin = nil
	}

	hits0, err := cacheHits(sys.nodes)
	if err != nil {
		return nil, err
	}
	var fsync0 uint64
	var snaps0 int64
	if sys.store != nil {
		fsync0, snaps0 = sys.fsyncs.Count(), sys.store.Status().Snapshots
	}
	// An untimed closed-loop second lets the GC pacer and the caches
	// settle after set-up; its responses are still judged.
	warmup := d.closedLoop(time.Second)

	// The load alternates open and closed rounds so both loops sample
	// the whole run: the box's speed drifts over seconds, and a metric
	// taken from one contiguous stretch would inherit that drift.
	tOpen := time.Duration(o.seconds) * time.Second * 2 / 3 / rounds
	tClosed := time.Duration(o.seconds)*time.Second/rounds - tOpen
	if o.trace {
		tClosed /= 2
	}
	var opens, closeds, traceds []phase
	var rtDelta rtCounters
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	for r := 0; r < rounds; r++ {
		opens = append(opens, d.openLoop(w.rate, tOpen))
		rt0 := readRuntime()
		closeds = append(closeds, d.closedLoop(tClosed))
		rtDelta = rtDelta.add(readRuntime(), rt0)
		if o.trace {
			d.rec = rec
			traceds = append(traceds, d.closedLoop(tClosed))
			d.rec = nil
		}
	}
	open, closed, traced := merge(opens), merge(closeds), merge(traceds)
	hits1, err := cacheHits(sys.nodes)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]resultItem{}}
	var searches, writes int
	for _, p := range []*phase{&warmup, &open, &closed, &traced} {
		res.Attempted += len(p.samples)
		res.Failed += len(p.samples) - p.ok()
		for _, s := range p.samples {
			switch s.route {
			case routeSearch:
				searches++
			case routeWrite:
				writes++
			}
		}
	}
	m := map[string]float64{}
	if searches > 0 {
		m["serve.query_cache_hit_ratio"] = float64(hits1-hits0) / float64(searches*len(sys.nodes))
	}
	if sys.store != nil {
		m["store.fsyncs_per_write"] = float64(sys.fsyncs.Count()-fsync0) / float64(max(writes, 1))
		m["store.snapshots_in_run"] = float64(sys.store.Status().Snapshots - snaps0)
		rs := sys.store.Status().Recovery
		m["store.records_replayed"] = float64(rs.WALAdds + rs.WALRemoves)
		m["store.recover_s"] = medianf(reps.recover)
	}
	if ok := closed.ok(); ok > 0 {
		m["runtime.allocs_per_req"] = rtDelta.allocs / float64(ok)
		m["runtime.alloc_bytes_per_req"] = rtDelta.allocBytes / float64(ok)
	}
	if rtDelta.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = rtDelta.gcCPU / rtDelta.totalCPU
	}
	lag := newDist(open.lag)
	m["harness.lag_p99_ms"] = ms(lag.quantile(0.99))
	throughput := midMean(roundRates(closeds))
	if o.trace {
		m["harness.trace_overhead"] = midMean(roundRates(traceds)) / throughput
		l := &ladder{sys: sys, in: in, d: d, or: or, rec: rec, node: sys.corpus, nodeServer: sys.handler, nodeURL: sys.front.url}
		if err := climb(l, w, twin); err != nil {
			return nil, err
		}
		l.metrics(m)
		res.Attempted += l.attempted
		res.Failed += l.bad
		if l.bad > 0 {
			res.Correct = false
			fmt.Printf("LADDER MISMATCH (%d): %s\n", l.bad, l.firstBad)
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		spans := rec.snapshot()
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("span file %s (%d spans)\n", path, len(spans))
	}
	if d.wrong > 0 {
		res.Correct = false
		fmt.Printf("ORACLE MISMATCH (%d): %s\n", d.wrong, d.firstBad)
	}
	if sys.store != nil {
		err := sys.close()
		if err == nil {
			err = checkDurable(dir, or)
		}
		if err != nil {
			res.Correct = false
			fmt.Printf("DURABILITY MISS: %v\n", err)
		}
	}

	e2e := map[string]float64{
		"setup_s":        medianf(reps.setup),
		"heap_mb":        heapMB,
		"throughput_rps": throughput,
		"service_ms":     serviceMS(&open),
		"ok_frac":        1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
	}
	report(w, o, nproc, e2e, reps, opens, closeds, lag, m, res)
	table, values := endToEnd, e2e
	if o.trace {
		table, values = perLayer, m
	}
	for _, mt := range table {
		res.Metrics[mt.name] = resultItem{Value: values[mt.name], Unit: mt.unit}
	}
	return res, nil
}

// repTimes are the set-up repetitions' times in seconds.
type repTimes struct {
	setup, recover []float64
}

// setUp builds the system w.reps times and times each: corpus build
// or store recovery, serve wiring, listener, and one warm-up request per
// route. One instance serves the run; on search and engine a second is
// kept as the oracle's twin. heap_mb is read after the serving instance
// is up, with every other instance released.
func setUp(w *workload, in *inputs, dir string, d *loadgen) (sys *system, twin *sbmlcompose.Corpus, reps repTimes, heapMB float64, err error) {
	serving := 0
	if w.name == "ingest" {
		serving = w.reps - 1 // earlier instances must release the data dir
	}
	for rep := 0; rep < w.reps; rep++ {
		t0 := time.Now()
		s, err := w.setup(in, dir)
		if err == nil {
			err = warm(in, s, d)
		}
		dt := time.Since(t0)
		if err != nil {
			if s != nil {
				s.close()
			}
			if sys != nil {
				sys.close()
			}
			return nil, nil, reps, 0, fmt.Errorf("set-up %d: %w", rep, err)
		}
		reps.setup = append(reps.setup, dt.Seconds())
		if s.store != nil {
			reps.recover = append(reps.recover, s.recover.Seconds())
		}
		switch {
		case rep == serving:
			sys = s
			heapMB = liveHeapMB()
			continue
		case rep == 1 && w.name != "ingest" && w.name != "cluster_search":
			twin = s.corpus
		}
		if err := s.close(); err != nil {
			if sys != nil {
				sys.close()
			}
			return nil, nil, reps, 0, err
		}
		d.client.CloseIdleConnections()
	}
	return sys, twin, reps, heapMB, nil
}

// warm sends one request per route of the pool through the listener.
func warm(in *inputs, s *system, d *loadgen) error {
	seen := map[int]bool{}
	for i := range in.pool {
		req := in.pool[i].req
		if seen[req.route] {
			continue
		}
		seen[req.route] = true
		status, _, err := d.send(s.front.url, &req, "", new(bytes.Buffer))
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("warm-up %s: status %d", req.path, status)
		}
	}
	return nil
}
