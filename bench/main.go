// Command bench is the repository's render benchmark: five dashboard
// workloads, each a closed loop of sessions (one initial load, four clicks)
// against the whole stack in this one process, every render verified
// against a serial run of the engine.
//
//	bench -seed 1                       all workloads, untraced then traced
//	bench -workload cold_scan -trace 0  one workload, end-to-end metrics only
//	bench -out a.json                   also write the results as JSON
//	bench -compare a.json b.json        side-by-side, with verdicts
//	bench -aa                           run twice, fail if the runs disagree
//
// The last line of standard output is one JSON object, the form the
// benchmark driver reads. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"
)

// maxProcs pins the scheduler to this box's two cores, whatever the host
// reports, so both sides of a comparison get the same machine.
const maxProcs = 2

// runLimit ends a run that would otherwise outlive the driver's patience.
const runLimit = 170 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	outDir   string
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.workload, "workload", "all", "workload `name`, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of every client's session stream (the data is fixed)")
	fs.Float64Var(&opt.seconds, "seconds", 0, "length of the timed pass, by the wall clock (default: run_seconds of BENCHMARK.json)")
	fs.StringVar(&opt.trace, "trace", "both", "0: end-to-end metrics; 1: traced run, per-layer metrics; both")
	fs.StringVar(&opt.out, "out", "", "write the results to this JSON `file`")
	fs.StringVar(&opt.outDir, "outdir", "", "directory for traces and scratch files (default: out/ beside the sources)")
	doCompare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	doAA := fs.Bool("aa", false, "run everything twice and fail if the two runs disagree beyond the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}

	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readDocument(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readDocument(fs.Arg(1))
		if err != nil {
			return err
		}
		return compare(os.Stdout, bf, a, b)
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(bf.RunSeconds)
	}
	if opt.outDir == "" {
		opt.outDir = "bench/out"
		if _, err := os.Stat("bench"); err != nil {
			opt.outDir = "out"
		}
	}
	if opt.trace != "0" && opt.trace != "1" && opt.trace != "both" {
		return fmt.Errorf("-trace is 0, 1 or both, not %q", opt.trace)
	}
	runtime.GOMAXPROCS(maxProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	doc, err := runAll(ctx, opt)
	if err != nil {
		return err
	}
	var aaErr error
	if *doAA {
		second, err := runAll(ctx, opt)
		if err != nil {
			return err
		}
		var over, unequal []string
		doc.AASpread, over, unequal = aaSpread(bf, doc, second)
		for _, line := range unequal {
			fmt.Println("A/A: count did not repeat:", line)
		}
		for _, line := range over {
			fmt.Println("A/A: beyond its bound:", line)
		}
		if len(over) > 0 {
			aaErr = fmt.Errorf("two runs of the same binary disagree on %d end-to-end metrics", len(over))
		}
	}
	if err := doc.printTable(os.Stdout); err != nil {
		return err
	}
	if opt.out != "" {
		if err := doc.writeFile(opt.out); err != nil {
			return err
		}
	}
	line, err := json.Marshal(doc.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return aaErr
}

// runAll runs the selected workloads, each in the selected modes.
func runAll(ctx context.Context, opt options) (*document, error) {
	specs := workloadSpecs()
	if opt.workload != "all" {
		spec := findSpec(opt.workload)
		if spec == nil {
			return nil, fmt.Errorf("no workload %q", opt.workload)
		}
		specs = []*workloadSpec{spec}
	}
	doc := &document{Seed: opt.seed, Seconds: opt.seconds, GoVersion: runtime.Version(), GOMAXPROCS: maxProcs}
	for _, spec := range specs {
		if opt.trace != "1" {
			res, err := withLimit(ctx, func(ctx context.Context) (*workloadResult, error) {
				return runEndToEnd(ctx, spec, opt.seed, opt.seconds, opt.outDir)
			})
			if err != nil {
				return nil, err
			}
			doc.merge(res)
			runtime.GC()
		}
		if opt.trace != "0" {
			res, err := withLimit(ctx, func(ctx context.Context) (*workloadResult, error) {
				return runTraced(ctx, spec, opt.seed, opt.outDir)
			})
			if err != nil {
				return nil, err
			}
			doc.merge(res)
			runtime.GC()
		}
	}
	return doc, nil
}

func withLimit(ctx context.Context, fn func(context.Context) (*workloadResult, error)) (*workloadResult, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	return fn(ctx)
}
