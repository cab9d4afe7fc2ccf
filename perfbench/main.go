// Command perfbench is the repository's benchmark: it builds one workload
// from a seed, drives it from one goroutine in a closed loop, checks every
// op's outcome against an oracle, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of its output.
// README.md describes the workloads, the metrics and the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"pfirewall/internal/programs"
	"pfirewall/internal/vfs"
)

// xorshift is the benchmark's deterministic PRNG; every input derives
// from --seed through it.
type xorshift struct{ s uint64 }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// plan is a workload's generated input: everything derived from the seed,
// made before any timing starts.
type plan interface {
	// inputs lists the generated inputs (rules, op list) for the op-list
	// hash.
	inputs() []string
	// build takes the system from nothing to ready to serve: world, rule
	// base, personas and daemons. attachObs attaches the metrics layer.
	build(attachObs bool, tr *tracer) (*instance, error)
}

// instance is one built, running workload.
type instance struct {
	w       *programs.World
	rules   int
	classes []string
	// listLen is the op list's length; step cycles through it.
	listLen int
	// step runs the next op of the list, checks its outcome and returns
	// the op's latency and class; page reads it times go to reads.
	step func(tr *tracer, reads *[]uint32) (int64, int, error)
	stop func()
	// probe fills the per-layer probe metrics on this instance's world.
	probe func(tr *tracer, m metricSet) error
	// readsAreOps marks workloads whose op is itself the page read.
	readsAreOps bool
}

// roundSec is the length of a GC-fenced round of the timed phase.
const roundSec = 2

type workload struct {
	name   string
	setups int // setups from nothing per run; setup_s is their median
	warmup int // ops run at the end of each setup
	obs    bool
	plan   func(seed uint64) plan
}

var workloads = []workload{
	{name: "syscall-hot", setups: 5, warmup: 2048, plan: func(s uint64) plan { return planSyscallHot(s) }},
	{name: "tenant-web", setups: 9, warmup: 2048, obs: true, plan: func(s uint64) plan { return planTenantWeb(s) }},
	{name: "policy-churn", setups: 9, warmup: 15, plan: func(s uint64) plan { return planPolicyChurn(s) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: syscall-hot, tenant-web or policy-churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans-dir", "", "where the traced run writes its spans (default $CARGO_TARGET_DIR or .bench_build, under spans/)")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if cfg.spans == "" {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		cfg.spans = filepath.Join(dir, "spans")
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// opListHash fingerprints the generated inputs.
func opListHash(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// failures counts failed ops and keeps the first few for the log.
type failures struct {
	attempted, failed int64
	first             []string
}

func (f *failures) note(err error) {
	f.attempted++
	if err == nil {
		return
	}
	f.failed++
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
}

// run executes one invocation and returns its result; info lines go to
// out before the caller prints the result line.
func run(cfg config, out io.Writer) (result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	setups := wl.setups
	if cfg.trace {
		setups = 1
	}
	p := wl.plan(cfg.seed)
	hash := opListHash(p.inputs())

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var fl failures
	var inst *instance
	var setupS []float64
	var rtSetup0, rtSetup1 rtSample
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.stop()
			inst = nil
		}
		runtime.GC()
		rtSetup0 = readRuntime()
		tr.beginOp(-1, true)
		t0 := nanotime()
		var err error
		inst, err = p.build(wl.obs, tr)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		warm(inst, wl.warmup, &fl)
		setupS = append(setupS, float64(nanotime()-t0)/1e9)
		tr.endOp()
		rtSetup1 = readRuntime()
	}
	setupPublishes := inst.w.Engine.PublishStats().Publishes

	k := inst.w.K
	eng := inst.w.Engine
	med0, hits0, miss0 := k.MediationCount.Load(), k.FS.DcacheHits.Load(), k.FS.DcacheMisses.Load()
	req0, drop0 := eng.Stats.Requests.Load(), eng.Stats.Drops.Load()
	rt0 := readRuntime()
	ph := timed(inst, cfg.seconds, tr, &fl)
	rt1 := readRuntime()
	ops := int64(len(ph.lat))
	lat := slices.Clone(ph.lat)
	slices.Sort(lat)

	m := metricSet{}
	info := map[string]any{
		"workload": wl.name, "seed": cfg.seed, "op_list_hash": hash,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"rules": inst.rules, "inodes": countInodes(inst.w),
		"setups": len(setupS), "setup_s_each": setupS,
		"timed_ops": ops, "op_deciles_us": deciles(lat),
	}
	info["class_share_pct"], info["class_p50_us"] = ph.classes(inst.classes)
	if !cfg.trace {
		reads := lat
		if !inst.readsAreOps {
			reads = slices.Clone(ph.reads)
			slices.Sort(reads)
		}
		info["rounds"], info["reads"] = len(ph.rounds), len(reads)
		info["op_p99_us"] = quantile(lat, 0.99) / 1e3
		m.put("setup_s", median(setupS), "s")
		m.put("ops_per_s", float64(ops)/(float64(max(ph.wall, 1))/1e9), "1/s")
		p50 := ph.roundP50()
		info["round_p50_us"] = p50
		m.put("op_p50_us", median(p50)/1e3, "us")
		m.put("op_p90_us", quantile(lat, 0.90)/1e3, "us")
		m.put("read_p99_us", quantile(reads, 0.99)/1e3, "us")
		m.put("cpu_ms_per_kop", float64(ph.cpu)/1e6/float64(max(ops, 1))*1000, "ms")
		// Finish the op list, so the live state the heap holds is the
		// seed's, not that of wherever the deadline fell.
		warm(inst, (inst.listLen-(wl.warmup+len(ph.lat))%inst.listLen)%inst.listLen, &fl)
		ph, lat, reads = nil, nil, nil
		m.put("heap_mb", liveHeapMB(), "MB")
	} else {
		perOp := func(d uint64) float64 { return float64(d) / float64(max(ops, 1)) }
		ps := eng.PublishStats()
		hits, miss := k.FS.DcacheHits.Load()-hits0, k.FS.DcacheMisses.Load()-miss0
		m.put("kernel.mediations_per_op", perOp(k.MediationCount.Load()-med0), "count")
		m.put("vfs.dcache_hit_pct", 100*float64(hits)/float64(max(hits+miss, 1)), "%")
		m.put("pf.requests_per_op", perOp(eng.Stats.Requests.Load()-req0), "count")
		m.put("pf.drops_per_kop", 1000*perOp(eng.Stats.Drops.Load()-drop0), "count")
		m.put("pf.setup_publishes", float64(setupPublishes), "count")
		m.put("pf.delta_publish_pct", 100*float64(ps.DeltaCompiles)/float64(max(ps.Publishes, 1)), "%")
		m.put("runtime.alloc_bytes_per_op", (rt1.allocBytes-rt0.allocBytes)/float64(max(ops, 1)), "B")
		m.put("runtime.gc_cpu_pct", gcPct(rt0, rt1), "%")
		m.put("runtime.setup_gc_pct", gcPct(rtSetup0, rtSetup1), "%")
		m.put("trace.overhead_pct", ph.traceOverheadPct(), "%")
		ph, lat = nil, nil
		if err := inst.probe(tr, m); err != nil {
			fl.note(fmt.Errorf("probe: %w", err))
		}
		tr.groupMetrics(m)
		install := tr.dur[spInstall].median()
		if install == 0 {
			install = m["pftables.install_ms"].Value * 1e6
		}
		m.put("pftables.install_ms", install/1e6, "ms")
		build := tr.dur[spWorldBuild].median()
		if tr.dur[spInstall].n == 0 { // worldgen.Build installed the base itself
			build -= install
		}
		m.put("worldgen.build_ms", build/1e6, "ms")
		pct, err := obsOverhead(p, wl, inst, cfg, &fl)
		if err != nil {
			return result{}, fmt.Errorf("obs overhead: %w", err)
		}
		m.put("obs.overhead_pct", pct, "%")
		info["spans"] = tr.summary()
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-%d.csv", wl.name, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		info["spans_file"] = path
	}

	inst.stop()
	// Conservation: with the load stopped and every daemon closed, each
	// request the engine filtered was either accepted or dropped.
	req, acc, drop := eng.Stats.Requests.Load(), eng.Stats.Accepts.Load(), eng.Stats.Drops.Load()
	conserved := req == acc+drop
	info["verdicts"] = map[string]any{"requests": req, "accepts": acc, "drops": drop, "conserved": conserved}
	if len(fl.first) > 0 {
		info["first_failures"] = fl.first
	}
	line, err := json.Marshal(info)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "info %s\n", line)
	return result{
		Correct:   fl.failed == 0 && conserved && ops > 0,
		Attempted: fl.attempted,
		Failed:    fl.failed,
		Metrics:   m,
	}, nil
}

// timed runs the timed phase in rounds of about roundSec seconds, each
// opened by a GC fence. With a tracer, even ops are traced and odd ops are
// not.
func timed(inst *instance, seconds float64, tr *tracer, fl *failures) *phase {
	ph := &phase{}
	c0, t0 := cpuNs(), nanotime()
	end := t0 + int64(seconds*1e9)
	for id := int64(0); nanotime() < end; {
		runtime.GC()
		roundEnd := min(end, nanotime()+roundSec*1e9)
		for nanotime() < roundEnd {
			traced := tr != nil && id%2 == 0
			tr.beginOp(id, traced)
			lat, class, err := inst.step(tr, &ph.reads)
			tr.endOp()
			id++
			fl.note(err)
			ph.lat = append(ph.lat, toNs(lat))
			ph.class = append(ph.class, uint8(class))
			if tr != nil {
				if traced {
					ph.traced = append(ph.traced, toNs(lat))
				} else {
					ph.untraced = append(ph.untraced, toNs(lat))
				}
			}
		}
		ph.rounds = append(ph.rounds, len(ph.lat))
	}
	ph.wall, ph.cpu = nanotime()-t0, cpuNs()-c0
	return ph
}

// countInodes walks the world's tree without following symlinks.
func countInodes(w *programs.World) int {
	fs := w.K.FS
	seen := map[vfs.Ino]bool{}
	var walk func(n *vfs.Inode)
	walk = func(n *vfs.Inode) {
		if seen[n.Ino] {
			return
		}
		seen[n.Ino] = true
		if !n.IsDir() {
			return
		}
		for _, name := range fs.List(n) {
			if c, ok := fs.Lookup(n, name); ok {
				walk(c)
			}
		}
	}
	walk(fs.Root())
	return len(seen)
}

// obsOverhead runs paired rounds of the workload's op list on two
// instances, metrics attached and detached, and reports the median over
// pairs of the attached p50's excess over the detached p50.
func obsOverhead(p plan, wl workload, inst *instance, cfg config, fl *failures) (float64, error) {
	twin, err := p.build(!wl.obs, nil)
	if err != nil {
		return 0, err
	}
	defer twin.stop()
	warm(twin, wl.warmup, fl)
	on, off := inst, twin
	if !wl.obs {
		on, off = twin, inst
	}
	const pairs = 6
	per := int64(min(cfg.seconds/4, 2) * 1e9 / pairs / 2)
	side := func(in *instance) float64 {
		runtime.GC()
		var lat, reads []uint32
		deadline := nanotime() + per
		for nanotime() < deadline {
			d, _, err := in.step(nil, &reads)
			fl.note(err)
			lat = append(lat, toNs(d))
			reads = reads[:0]
		}
		return sortedQ(lat, 0.5)
	}
	var pct []float64
	for i := 0; i < pairs; i++ {
		var a, b float64
		if i%2 == 0 {
			a = side(on)
			b = side(off)
		} else {
			b = side(off)
			a = side(on)
		}
		pct = append(pct, 100*(a/b-1))
	}
	return median(pct), nil
}

// warm runs n untimed ops, counting their outcomes.
func warm(inst *instance, n int, fl *failures) {
	var reads []uint32
	for i := 0; i < n; i++ {
		_, _, err := inst.step(nil, &reads)
		fl.note(err)
		reads = reads[:0]
	}
}
