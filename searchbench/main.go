// Command searchbench is the repository's Search-level benchmark. It builds
// a seeded 32-node CYCLOSA deployment through the public constructors,
// drives core.Node.Search in a closed loop and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a second, traced
// pass over identical inputs). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash searchbench/run.sh --workload fanout-tcp --seed 1 --seconds 10 --trace 0
//
// README.md in this directory records why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// windowPeriod is the length of the slices a pass is cut into;
	// throughput, percentiles and CPU per search are medians over them.
	windowPeriod = time.Second
	// numSetups is how many times a run builds its deployment; setup_s is
	// the median and the last one is measured.
	numSetups = 7
)

// spanDir is where a traced pass writes its spans, under the build
// directory of the checkout.
var spanDir = filepath.Join(".bench_build", "traces")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
}

func parse(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("searchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fanout-tcp, history-direct or churn-tcp")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of one measured pass")
	trace := fs.Int("trace", 0, "1: also run a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	wl, err := workloadNamed(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return options{}, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	return options{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "searchbench:", err)
		return 2
	}
	res, err := bench(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "searchbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "searchbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func bench(opt options, out io.Writer) (*result, error) {
	wl := opt.workload
	dur := time.Duration(opt.seconds * float64(time.Second))
	in, err := makeInputs(wl, opt.seed)
	if err != nil {
		return nil, err
	}

	// Build the deployment numSetups times; the last one is measured.
	var setups []float64
	var d *deployment
	for i := 0; i < numSetups; i++ {
		if d != nil {
			d.close()
			d = nil
			runtime.GC()
		}
		if d, err = deploy(wl, in, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		if i == 0 && wl.sensitiveOnly {
			if err := in.keepSensitive(d.parts.detector()); err != nil {
				return nil, err
			}
		}
	}
	w0 := d.settle()
	probe := speedProbe()
	m0 := memStats()
	p0 := d.run(dur, windowPeriod)
	mem := memBetween(m0, memStats())
	wrapped := d.wrapped()
	d.close()
	o0 := p0.outcome()
	res := &result{Attempted: o0.attempted, Failed: o0.failed, Metrics: map[string]jsonMetric{}}
	res.Correct = o0.wrong == 0 && p0.churnErr == nil && o0.attempted > 0 && settled(w0)
	fmt.Fprintf(out, "searchbench %s seed=%d seconds=%g trace=%t\n", wl.name, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(out, "env %s\n", env(opt.seed, fmt.Sprintf("%d searches, %d set-ups", o0.attempted, len(setups)), probe))
	fmt.Fprintf(out, "settle: %d searches (%d per user) before the pass, %d failed, %d re-issued\n",
		len(w0.samples), d.wl.historyCap, w0.outcome().failed, w0.outcome().reissued)
	fmt.Fprintf(out, "untraced: %d searches, %d re-issued after an error, %d failed (%d with a wrong page or self relay), fail_ratio %.6f, %d users' streams wrapped, steal %.1f%% of machine CPU\n",
		o0.attempted, o0.reissued, o0.failed, o0.wrong, per(float64(o0.failed), o0.attempted), wrapped, p0.stealShare())
	if p0.churnErr != nil {
		fmt.Fprintf(out, "churn error: %v\n", p0.churnErr)
	}
	e2e := endToEnd(p0, windowPeriod, setups)
	if !opt.trace {
		report(out, e2e, res)
		return res, nil
	}
	report(out, e2e, nil)

	// The traced pass: a fresh deployment from the same inputs, so every
	// user starts from the same history and issues the same stream.
	runtime.GC()
	observeSessions()
	tr := newTracer()
	dt, err := deploy(wl, in, tr)
	if err != nil {
		return nil, err
	}
	defer dt.close()
	wt := dt.settle()
	tr.reset()
	before := dt.snapshot()
	pt := dt.run(dur, windowPeriod)
	after := dt.snapshot()
	tree, treeErr := buildTree(tr.take())
	ot := pt.outcome()
	res.Attempted, res.Failed = ot.attempted, ot.failed
	res.Correct = res.Correct && ot.wrong == 0 && pt.churnErr == nil && treeErr == nil && ot.mismatches == 0 && settled(wt)
	fmt.Fprintf(out, "traced: %d searches, %d failed (%d wrong), %d spans, shadow k mismatches %d\n",
		ot.attempted, ot.failed, ot.wrong, len(tree.spans), ot.mismatches)
	if treeErr != nil {
		fmt.Fprintf(out, "span tree malformed: %v\n", treeErr)
	}
	// One file per workload, overwritten by the next traced run: the
	// build directory stays bounded however many seeds are run.
	path := filepath.Join(spanDir, wl.name+".tsv.gz")
	if err := writeSpans(path, fmt.Sprintf("# workload=%s seed=%d", wl.name, opt.seed), tree); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	layers := perLayer(dt, pt, tree, before, after, p0, mem)
	report(out, layers, res)
	for _, c := range layerChecks(wl, layers) {
		fmt.Fprintln(out, c)
	}
	return res, nil
}

// settled reports whether no settling search returned a wrong output.
func settled(p *pass) bool {
	o := p.outcome()
	return o.wrong == 0 && o.mismatches == 0 && p.churnErr == nil
}

// report prints metrics one per line and, when res is non-nil, adds them
// to the result.
func report(out io.Writer, ms []metric, res *result) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-36s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		if res != nil {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
}
