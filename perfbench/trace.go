package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// perLayerMetrics is every metric the traced run prints, in BENCHMARK.json
// order. A layer a workload does not exercise reads 0 on that workload.
var perLayerMetrics = []struct{ name, unit string }{
	{"workload.gen_s", "s"},
	{"machine.setup_s", "s"},
	{"machine.ns_per_event.baseline", "ns"},
	{"machine.ns_per_event.memento", "ns"},
	{"machine.ns_per_event.probed", "ns"},
	{"machine.restore_mb", "MB"},
	{"machine.alloc_kb_per_run", "KB"},
	{"machine.allocs_per_run", "count"},
	{"machine.cpu_share", "ratio"},
	{"cache.ops", "count"},
	{"tlb.ops", "count"},
	{"dram.ops", "count"},
	{"kernel.ops", "count"},
	{"softalloc.ops", "count"},
	{"core.ops", "count"},
	{"cache.cpu_share", "ratio"},
	{"tlb.cpu_share", "ratio"},
	{"dram.cpu_share", "ratio"},
	{"kernel.cpu_share", "ratio"},
	{"softalloc.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"trace.cpu_share", "ratio"},
	{"cache.ns_per_op", "ns"},
	{"tlb.ns_per_op", "ns"},
	{"dram.ns_per_op", "ns"},
	{"kernel.ns_per_op", "ns"},
	{"softalloc.ns_per_op", "ns"},
	{"core.ns_per_op", "ns"},
	{"host.cpu_util", "ratio"},
	{"fleet.measure_s", "s"},
	{"fleet.ns_per_invocation", "ns"},
	{"fleet.cold_starts", "count"},
	{"fleet.warm_hits", "count"},
	{"fleet.evictions", "count"},
	{"fleet.alloc_kb_per_run", "KB"},
	{"fleet.cpu_share", "ratio"},
	{"api.submit_ms", "ms"},
	{"store.queue_wait_ms", "ms"},
	{"store.exec_ms.compare", "ms"},
	{"store.exec_ms.run", "ms"},
	{"api.notify_lag_ms", "ms"},
	{"api.get_ms", "ms"},
	{"api.result_kb", "KB"},
	{"store.cache_hit_ratio", "ratio"},
	{"telemetry.samples", "count"},
	{"store.cpu_share", "ratio"},
	{"api.cpu_share", "ratio"},
	{"telemetry.cpu_share", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// span is one timed call the benchmark made into a layer. Spans of one
// service job share its job id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setJob tags span id with a job id learnt after it opened.
func (t *tracer) setJob(id int, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Job = job
	t.mu.Unlock()
}

// named returns the closed spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// durationsMs lists the named spans' durations in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// heapAllocs reads the process's cumulative heap allocation bytes and
// objects from runtime/metrics.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// profiler collects a CPU profile of the traced phase in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack as function names, leaf first, and its weight.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
	total   int64
	raw     []byte
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, pbPacked(v, b)...)
				case 2:
					for _, x := range pbPacked(v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{raw: gz}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		w := s.values[0]
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, w)
		p.total += w
	}
	return p, nil
}

// pbFields walks the top-level fields of a protobuf message, handing each
// to fn with its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbPacked returns a repeated varint field's values: the single value v
// when unpacked, or every varint in data when packed.
func pbPacked(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// pkgOf returns the import path of a function symbol such as
// "memento/internal/cache.(*Hierarchy).Access". The type arguments of a
// generic function's symbol may hold slashes of their own, so they are cut
// off first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package to the benchmark layer it is counted in: the
// repository's internal packages by name, net/http and encoding/json in
// the api layer.
func layerOf(pkg string) string {
	if l, ok := strings.CutPrefix(pkg, "memento/internal/"); ok {
		return l
	}
	switch pkg {
	case "net/http", "encoding/json":
		return "api"
	}
	return pkg
}

// shares returns each package's self share (leaf frame) and cumulative
// share (any frame) of the profile's samples.
func (p *cpuProfile) shares() (self, cum map[string]float64) {
	self, cum = map[string]float64{}, map[string]float64{}
	if p.total == 0 {
		return
	}
	for i, st := range p.stacks {
		w := float64(p.weights[i]) / float64(p.total)
		if len(st) > 0 {
			self[pkgOf(st[0])] += w
		}
		seen := map[string]bool{}
		for _, fn := range st {
			pkg := pkgOf(fn)
			if !seen[pkg] {
				seen[pkg] = true
				cum[pkg] += w
			}
		}
	}
	return
}

// profileLayers derives the profile-based per-layer metrics: each layer's
// self share and the runtime's garbage-collection share (samples under a
// GC mark worker or mallocgc).
func profileLayers(p *cpuProfile) map[string]float64 {
	out := map[string]float64{}
	self, _ := p.shares()
	for pkg, s := range self {
		out[layerOf(pkg)+".cpu_share"] += s
	}
	if p.total > 0 {
		var gc int64
		for i, st := range p.stacks {
			for _, fn := range st {
				if fn == "runtime.gcBgMarkWorker" || fn == "runtime.mallocgc" {
					gc += p.weights[i]
					break
				}
			}
		}
		out["runtime.gc_share"] = float64(gc) / float64(p.total)
	}
	return out
}

// writeArtifacts writes the traced run's spans (JSON lines), its CPU
// profile, and the per-package host-time attribution table under o.out.
func writeArtifacts(o *options, tr *tracer, p *cpuProfile) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var spans bytes.Buffer
	enc := json.NewEncoder(&spans)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			return err
		}
	}
	tr.mu.Unlock()
	files := map[string][]byte{
		o.workload + ".spans.jsonl":     spans.Bytes(),
		o.workload + ".cpu.pprof":       p.raw,
		o.workload + ".attribution.txt": []byte(attributionTable(o.workload, p)),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(o.out, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// attributionTable renders where the traced phase's host CPU time went:
// one row per package with its self and cumulative share, sorted by self
// share.
func attributionTable(workload string, p *cpuProfile) string {
	self, cum := p.shares()
	pkgs := make([]string, 0, len(cum))
	for pkg := range cum {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if self[pkgs[i]] != self[pkgs[j]] {
			return self[pkgs[i]] > self[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "host CPU time by package, %s traced phase (%d samples)\n", workload, p.total)
	fmt.Fprintf(&b, "%-40s %8s %8s\n", "package", "self%", "cum%")
	for _, pkg := range pkgs {
		if self[pkg] < 0.001 && cum[pkg] < 0.01 {
			continue
		}
		fmt.Fprintf(&b, "%-40s %8.1f %8.1f\n", pkg, 100*self[pkg], 100*cum[pkg])
	}
	return b.String()
}
