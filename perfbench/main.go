// Command perfbench is the repository benchmark. It drives the simulator's
// real entry points (experiments.Suite, fleet.Fleet, and an in-process
// mementod) through one of three workloads, checks every simulated output
// against expected values, and prints the metrics as one JSON line:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a traced run and writes spans and a
// host-time attribution table under --out. README.md in this directory
// maps every metric to the layer it measures and the workload it moves.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processStart approximates the process start: package initialisation
// runs before main, a few milliseconds after exec.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line plus the knobs the self-test turns.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	setupOnly bool
	record    string
	// setupReps is how many times set-up is timed: the process itself plus
	// setupReps-1 child processes that stop after set-up.
	setupReps int
	// tiny shrinks every workload for the self-test.
	tiny bool
	// exp is the expected-output table checked against.
	exp *expected
}

// report is what one workload run measured.
type report struct {
	exp *expected
	log io.Writer

	attempted, failed int
	metrics           map[string]metric
	// lines are human-readable report lines printed before the JSON.
	lines []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric. A value that could not be measured (no samples:
// every op of its class failed) is reported as 0.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// op records one checked operation: err is nil when it ran and its output
// matched the expected values.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.log, "perfbench: failed op: %v\n", err)
		}
	}
}

// benchWorkload is one benchmark workload. setup runs once per process
// before the first timed op; timed runs ops for the given duration; layers
// adds the traced run's per-layer metrics to out, which already holds the
// CPU-profile shares.
type benchWorkload interface {
	setup(o *options, tr *tracer, rep *report) error
	timed(o *options, d time.Duration, tr *tracer, rep *report) (phase, error)
	layers(o *options, tr *tracer, ph phase, out map[string]float64, rep *report) error
}

// phase summarises one timed phase.
type phase struct {
	wall    time.Duration // host time of the ops
	cpu     time.Duration // process CPU time over the ops
	work    float64       // units of work completed (events, invocations, jobs)
	opTimes []float64     // op latencies, ms
}

// add records one op, or one round of ops, that took d of host time.
func (p *phase) add(d, cpu time.Duration, work float64) {
	p.wall += d
	p.cpu += cpu
	p.work += work
}

func (p phase) throughput() float64 { return p.work / p.wall.Seconds() }

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "paper-sweep":
		return &sweepWorkload{}, nil
	case "fleet-scale":
		return &fleetWorkload{}, nil
	case "service-mix":
		return &serviceWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-sweep, fleet-scale or service-mix)", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	o := &options{setupReps: 3}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "paper-sweep, fleet-scale or service-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (fleet arrivals, service job sequence)")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&o.out, "out", "perfbench/out", "directory for spans and the attribution table")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time set-up only and print its seconds (used for repeated set-up timing)")
	fs.StringVar(&o.record, "record", "", "write the expected-output table to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	return execute(o, stdout, stderr)
}

// execute runs what o asks for and prints the result; it returns the
// process exit code.
func execute(o *options, stdout, stderr io.Writer) int {
	if o.record != "" {
		if err := record(o.record, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: record: %v\n", err)
			return 1
		}
		return 0
	}
	if o.exp == nil {
		exp, err := loadExpected()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.exp = exp
	}
	rep, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.setupOnly {
		fmt.Fprintf(stdout, "%s\n", strconv.FormatFloat(rep.metrics["setup_s"].Value, 'g', -1, 64))
		return 0
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func runWorkload(o *options, log io.Writer) (*report, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	rep := &report{exp: o.exp, log: log}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := w.setup(o, tr, rep); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(processStart).Seconds()
	setupRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if o.setupOnly {
		rep.set("setup_s", "s", setup)
		return rep, nil
	}
	if o.trace {
		return traced(o, w, tr, rep)
	}
	// Every timed phase starts from a collected heap, whatever garbage
	// set-up left behind.
	runtime.GC()
	setups := []float64{setup}
	for i := 1; i < o.setupReps; i++ {
		s, err := childSetup(o)
		if err != nil {
			return nil, fmt.Errorf("set-up repetition %d: %w", i, err)
		}
		setups = append(setups, s)
	}
	ph, err := w.timed(o, seconds(o.seconds), nil, rep)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("peak_rss_mb", "MB", rss)
	rep.set("throughput_per_s", "1/s", ph.throughput())
	rep.set("op_p50_ms", "ms", median(ph.opTimes))
	rep.printf("%s: setup_s median %.3f s of %d set-ups %v", o.workload, median(setups), len(setups), roundAll(setups, 3))
	rep.printf("%s: timed phase %.2f s of ops, %d ops attempted, %d failed, host cpu_util %.3f",
		o.workload, ph.wall.Seconds(), rep.attempted, rep.failed, cpuUtil(ph))
	rep.printf("%s: peak_rss_mb %.1f MB (%.1f MB at the end of set-up)", o.workload, rss, setupRSS)
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// childSetup re-executes this binary with --setup-only and returns the
// set-up seconds it printed. Children run one at a time, after the parent's
// own set-up, so they never compete with a measurement.
func childSetup(o *options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--setup-only")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// traced runs the per-layer run: an untraced half of the timed phase (the
// reference for the tracing overhead), then a traced half with spans and a
// CPU profile.
func traced(o *options, w benchWorkload, tr *tracer, rep *report) (*report, error) {
	runtime.GC()
	half := seconds(o.seconds / 2)
	plain, err := w.timed(o, half, nil, rep)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	ph, err := w.timed(o, half, tr, rep)
	samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	layers := profileLayers(samples)
	if err := w.layers(o, tr, ph, layers, rep); err != nil {
		return nil, err
	}
	layers["host.cpu_util"] = cpuUtil(plain)
	layers["trace.overhead"] = plain.throughput()/ph.throughput() - 1
	for _, m := range perLayerMetrics {
		rep.set(m.name, m.unit, layers[m.name])
	}
	if err := writeArtifacts(o, tr, samples); err != nil {
		return nil, err
	}
	rep.printf("%s: traced half %.2f s, untraced half %.2f s, tracing overhead %.2f%%",
		o.workload, ph.wall.Seconds(), plain.wall.Seconds(), 100*layers["trace.overhead"])
	return rep, nil
}

// forEach calls fn for every item from GOMAXPROCS goroutines, the fan-out
// the suite's sweep uses, and returns every error fn returned, joined.
func forEach[T any](items []T, fn func(T) error) error {
	jobs := make(chan T)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for i := 0; i < min(runtime.GOMAXPROCS(0), len(items)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				if err := fn(it); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, it := range items {
		jobs <- it
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}

// cpuUtil is the process CPU time over the phase divided by wall time and
// the number of CPUs.
func cpuUtil(p phase) float64 {
	return p.cpu.Seconds() / (p.wall.Seconds() * float64(runtime.NumCPU()))
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it, and its label; ok is false below 100 samples.
func tail(xs []float64) (label string, v float64, ok bool) {
	n := float64(len(xs))
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if n*(1-t.q) >= 10 {
			return t.label, quantile(xs, t.q), true
		}
	}
	return "", 0, false
}

// describe formats a timing as its median plus the highest percentile
// with ten samples beyond it, with the sample count.
func describe(xs []float64, unit string) string {
	s := fmt.Sprintf("p50 %.3f %s", median(xs), unit)
	if label, v, ok := tail(xs); ok {
		s += fmt.Sprintf(", %s %.3f %s", label, v, unit)
	}
	return s + fmt.Sprintf(" (n=%d)", len(xs))
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
