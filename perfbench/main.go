// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload in its own process: it starts lopserve (for
// audit_hot, loprouter in front of two lopserve backends) on localhost
// listeners, drives it through the client SDK in a closed loop, checks
// every answer against a library oracle, and prints one JSON result
// line last:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it records spans around the benchmark's
// calls into each layer (the SDK's transport, the router's and the
// servers' ServeHTTP) and replays each layer's public functions on the
// workload's own inputs. The program itself is not instrumented. See
// README.md for the workloads and the metric map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// heldOutSeed is the seed kept out of tuning: later changes check their
// claims on it as well as on the seeds they were developed against.
const heldOutSeed = 90210

// setupReps is how many times a run builds its tier from scratch;
// setup_s is the median.
const setupReps = 5

// warmupStream offsets the op indices of the discarded warm-up so the
// timed window always replays ops 0, 1, 2, ... of the seeded sequence.
const warmupStream = 1 << 24

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized inputs
	traceDir string // where the traced run writes its spans
	tamper   bool   // tests: corrupt one oracle answer
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs and op sequence")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one traffic mix. Implementations generate their inputs
// from the seed when constructed; the program only ever sees those
// inputs.
type workload interface {
	// setup starts a fresh tier and warms the working set. tr is nil on
	// untraced runs; otherwise the tier's handlers record spans into it.
	setup(ctx context.Context, tr *tracer) (*tier, error)
	// op runs operation i of the seeded sequence and returns the
	// fingerprint of the answer.
	op(ctx context.Context, t *tier, c *client.Client, i int) (uint64, error)
	// oracle returns the fingerprint the library computes for op i.
	oracle(i int) uint64
	// items is the working set: every graph the workload queries, at
	// the L it is queried at.
	items() []item
	// replay times the workload's layer calls on the inputs of ops,
	// recording spans and counts into tr.
	replay(ctx context.Context, tr *tracer, ops []int) error
}

var workloads = map[string]func(options) (workload, error){
	"audit_hot": newAuditHot,
	"churn":     newChurn,
	"publish":   newPublish,
}

func workloadNames() []string { return []string{"audit_hot", "churn", "publish"} }

// sample is one completed op of a timed window.
type sample struct {
	op  int
	lat time.Duration
	fp  uint64
	err error
}

// window is the outcome of one closed-loop drive.
type window struct {
	samples []sample
	elapsed time.Duration
}

// drive runs w's op sequence from index first in a closed loop, one
// op at a time, until d has passed; the op in flight at the deadline
// finishes and counts. With tr non-nil each op is wrapped in an "op"
// span.
func drive(ctx context.Context, w workload, t *tier, c *client.Client, first int, d time.Duration, tr *tracer) window {
	start := time.Now()
	deadline := start.Add(d)
	var out window
	for i := first; time.Now().Before(deadline); i++ {
		octx, done := tr.beginOp(ctx, i)
		t0 := time.Now()
		fp, err := w.op(octx, t, c, i)
		lat := time.Since(t0)
		done()
		out.samples = append(out.samples, sample{op: i, lat: lat, fp: fp, err: err})
	}
	out.elapsed = time.Since(start)
	return out
}

// warmupFor is the discarded warm-up before the timed window.
func warmupFor(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second) / 5)
	return min(max(d, 200*time.Millisecond), 2*time.Second)
}

func run(ctx context.Context, o options, out io.Writer) (result, error) {
	w, err := workloads[o.workload](o)
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d held_out_seed=%d size=%s trace=%v\n",
		o.workload, o.seed, heldOutSeed, size, o.trace)
	fmt.Fprintf(out, "env gomaxprocs=%d nproc=%d go=%s clients=1 loop=closed window_s=%g\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), o.seconds)
	fmt.Fprintf(out, "host sha256_mb_s=%.0f before\n", hostSpeed())

	// Set-up is timed several times, each from a cold tier; the last
	// tier serves the timed window.
	var setups []float64
	var t *tier
	for k := 0; k < setupReps; k++ {
		if t != nil {
			t.close()
		}
		t0 := time.Now()
		t, err = w.setup(ctx, tr)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer t.close()

	c, err := t.client(tr)
	if err != nil {
		return result{}, err
	}
	warm := drive(ctx, w, t, c, warmupStream, warmupFor(o.seconds), nil)
	for _, s := range warm.samples {
		if s.err != nil {
			return result{}, fmt.Errorf("warm-up op %d: %w", s.op, s.err)
		}
	}

	before, err := t.stats(ctx)
	if err != nil {
		return result{}, err
	}
	win := drive(ctx, w, t, c, 0, time.Duration(o.seconds*float64(time.Second)), tr)
	// Read before the oracles run: they share this process, and the
	// metric is the serving stack's peak, not the checker's.
	rss := peakRSSMB()
	after, err := t.stats(ctx)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "host sha256_mb_s=%.0f after\n", hostSpeed())

	failed, firstErr := check(w, win.samples, o.tamper)
	res := result{Attempted: len(win.samples), Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return result{}, errors.New("no op completed in the timed window")
	}
	errRate := float64(failed) / float64(res.Attempted)
	fmt.Fprintf(out, "ops attempted=%d failed=%d\n", res.Attempted, failed)
	// error_rate is 0 on a correct run, so BENCHMARK.json, whose metrics
	// must never be 0, carries it as failed/attempted instead.
	fmt.Fprintf(out, "metric error_rate %g fraction\n", errRate)
	if firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", firstErr)
	}

	if !o.trace {
		lat := latencies(win.samples)
		fmt.Fprintf(out, "latency samples=%d beyond_p50=%d beyond_p90=%d\n", len(lat), beyond(len(lat), 0.5), beyond(len(lat), 0.9))
		add := func(name, unit string, v float64) {
			res.Metrics[name] = metric{Value: v, Unit: unit}
			fmt.Fprintf(out, "metric %s %.6g %s\n", name, v, unit)
		}
		add("throughput_ops_s", "ops/s", float64(len(win.samples))/win.elapsed.Seconds())
		add("latency_p50_ms", "ms", ms(percentile(lat, 0.5)))
		add("latency_p90_ms", "ms", ms(percentile(lat, 0.9)))
		add("setup_s", "s", median(setups))
		add("peak_rss_mb", "MB", rss)
		fmt.Fprintf(out, "setup_s runs=%v\n", setups)
		return res, nil
	}

	var plain, traced []sample
	for _, s := range win.samples {
		if sampled(s.op) {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	overhead := 0.0
	if p := percentile(latencies(plain), 0.5); p > 0 {
		overhead = (float64(percentile(latencies(traced), 0.5))/float64(p) - 1) * 100
	}
	fmt.Fprintf(out, "trace untraced_ops=%d untraced_p50_ms=%.6g traced_ops=%d traced_p50_ms=%.6g\n",
		len(plain), ms(percentile(latencies(plain), 0.5)), len(traced), ms(percentile(latencies(traced), 0.5)))
	if err := tr.replay(ctx, w, opsOf(win.samples)); err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	for _, m := range layerMetrics(tr, after.sub(before), overhead) {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(out, "metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
	for _, line := range tr.routeBreakdown() {
		fmt.Fprintln(out, line)
	}
	path, err := tr.write(o.traceDir, o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans=%d written to %s\n", tr.len(), path)
	return res, nil
}

// check compares every completed op's answer with the oracle. An op
// that errored or answered differently counts as failed.
func check(w workload, samples []sample, tamper bool) (failed int, first error) {
	ops := opsOf(samples)
	want := oracles(w, ops)
	if tamper && len(want) > 0 {
		want[0] ^= 1
	}
	for k, s := range samples {
		err := s.err
		if err == nil && s.fp != want[k] {
			err = fmt.Errorf("op %d: answer differs from the library oracle", s.op)
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

// oracles computes the expected fingerprints of ops on every CPU.
func oracles(w workload, ops []int) []uint64 {
	want := make([]uint64, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				want[k] = w.oracle(ops[k])
			}
		}()
	}
	wg.Wait()
	return want
}

func opsOf(samples []sample) []int {
	ops := make([]int, len(samples))
	for k, s := range samples {
		ops[k] = s.op
	}
	return ops
}

// hostSpeed is the rate of a fixed single-threaded loop, printed
// before and after the window. Shared hosts drift by tens of percent
// over minutes; this line tells a slower host from a slower program.
func hostSpeed() float64 {
	buf := make([]byte, 64<<10)
	start := time.Now()
	n := 0
	for time.Since(start) < 300*time.Millisecond {
		sha256.Sum256(buf)
		n++
	}
	return float64(n*len(buf)) / time.Since(start).Seconds() / 1e6
}

// peakRSSMB reads the process's VmHWM, the peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
