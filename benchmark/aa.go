package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runChild runs one workload in a child process of this same binary —
// its own process so that peak_rss_mb belongs to that workload alone —
// and returns the result from the child's last output line. echo
// forwards the child's report to our stdout.
func runChild(cfg runConfig, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if echo {
			fmt.Println(sc.Text())
		}
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line in child output", cfg.workload)
	}
	return res, nil // a failed operation shows in res.Correct; the caller decides the exit code
}

// runAll runs every workload, one child process each, and returns the
// process exit code: non-zero if any workload had a failed operation.
func runAll(cfg runConfig) int {
	code := 0
	all := map[string]result{}
	for _, name := range workloadNames() {
		c := cfg
		c.workload = name
		res, err := runChild(c, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		all[name] = res
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]map[string]result{"workloads": all}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// selfCheck is the A/A test: for every workload, two interleaved sets
// of n end-to-end runs of this same binary (run i of both sets uses
// seed+i, as the acceptance driver varies the seed). Per metric it
// prints each set's median and quartile spread and the gap between the
// set medians against the metric's bound. It fails if a gap exceeds its
// bound and warns above a third of it: a benchmark that disagrees with
// itself cannot judge a change.
func selfCheck(cfg runConfig, n int) int {
	cfg.trace = false
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tgap\tspread A\tspread B\tbound\tverdict")
	for _, name := range workloadNames() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := k
				if !aFirst(i) {
					side = 1 - k
				}
				c := cfg
				c.workload, c.seed = name, cfg.seed+int64(i)
				res, err := runChild(c, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d operations failed\n", name, c.seed, res.Failed, res.Attempted)
					code = 1
				}
				for m, v := range res.Metrics {
					sets[side][m] = append(sets[side][m], v.Value)
				}
			}
		}
		for _, s := range endToEnd {
			a, b := median(sets[0][s.Name]), median(sets[1][s.Name])
			gap := 0.0
			if a != 0 {
				gap = (b - a) / a
				if gap < 0 {
					gap = -gap
				}
			}
			verdict := "ok"
			switch {
			case gap > s.Bound:
				verdict = "FAIL"
				code = 1
			case gap > s.Bound/3:
				verdict = "warn"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n", name, s.Name, a, b,
				100*gap, 100*quartileSpread(sets[0][s.Name]), 100*quartileSpread(sets[1][s.Name]), 100*s.Bound, verdict)
		}
		if err := tw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}
