package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of the regression gate.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
	verdictNotMet     = "not-met"
)

// verdict judges one end-to-end metric on one workload from the base and
// new runs, given in the order they ran (pairs are base[i], new[i]).
//
// A claimed gain must win at least nine of every ten pairs, ties counting
// for neither side, with medians further apart than the base runs'
// interquartile distance. Otherwise the metric is unresolved when either
// side's spread exceeds the bound and not every new run beats every base
// run, and regressed when the new median is worse than the base median by
// more than the bound.
func verdict(def metricDef, base, next []float64, claimed bool) string {
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	mb, mn := median(base), median(next)
	if claimed {
		pairs := len(base)
		if len(next) < pairs {
			pairs = len(next)
		}
		wins := 0
		for i := 0; i < pairs; i++ {
			if better(next[i], base[i]) {
				wins++
			}
		}
		q1, q3 := quartiles(base)
		if pairs > 0 && 10*wins >= 9*pairs && better(mn, mb) && math.Abs(mn-mb) > q3-q1 {
			return verdictImproved
		}
		return verdictNotMet
	}
	allBetter := len(base) > 0 && len(next) > 0
	for _, n := range next {
		for _, b := range base {
			allBetter = allBetter && better(n, b)
		}
	}
	if (spread(base) > def.Bound || spread(next) > def.Bound) && !allBetter {
		return verdictUnresolved
	}
	worse := (mn - mb) / math.Abs(mb)
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// samples maps workload, then metric, to the values of successive runs.
type samples map[string]map[string][]float64

// readRecords loads the untraced records of result files written with
// -out. It fails on a record of an incorrect run: its timings mean nothing.
func readRecords(paths []string) (samples, error) {
	out := samples{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for n := 1; sc.Scan(); n++ {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
			if r.Trace {
				continue
			}
			if !r.Result.Correct {
				f.Close()
				return nil, fmt.Errorf("%s:%d: run of %s at seed %d failed its checks", path, n, r.Workload, r.Seed)
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Result.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runCompare is the -compare mode: base files, "--", new files. It prints
// one row per workload and metric and fails when any metric regressed, is
// unresolved, or a claimed gain is not met.
func runCompare(root string, args []string, claim string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare <base files> -- <new files>")
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base, err := readRecords(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	next, err := readRecords(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var names []string
	for w := range base {
		names = append(names, w)
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(stdout, "%-12s %-12s %9s %23s %9s %23s  %s\n", "workload", "metric", "base", "[q1, q3] (n)", "new", "[q1, q3] (n)", "verdict")
	for _, w := range names {
		for _, def := range spec.EndToEnd {
			b, n := base[w][def.Name], next[w][def.Name]
			if len(n) == 0 {
				fmt.Fprintf(stdout, "%-12s %-12s no new runs\n", w, def.Name)
				status = 1
				continue
			}
			v := verdict(def, b, n, claim == w+"/"+def.Name)
			if v != verdictOK && v != verdictImproved {
				status = 1
			}
			fmt.Fprintf(stdout, "%-12s %-12s %s %s  %s\n", w, def.Name, quartileCell(b), quartileCell(n), v)
		}
	}
	return status
}

func quartileCell(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%9.4g %23s", median(xs), fmt.Sprintf("[%.4g, %.4g] (%d)", q1, q3, len(xs)))
}
