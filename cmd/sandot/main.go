// Command sandot exports the structure of the composed ITUA SAN model as a
// Graphviz DOT graph: places as circles, activities as bars, and edges for
// the declared enabling dependencies. With -lint it instead runs the static
// model linter and reports structural defects: unreachable activities,
// orphaned or never-read places, case distributions that do not sum to one,
// and declared-bound violations.
//
// Usage:
//
//	sandot [-domains D] [-hosts H] [-apps A] [-reps R] [-policy domain|host] [-lint] [-o itua.dot]
//
// Without -o the graph goes to stdout. With -o the file is written
// atomically (temp file + rename), so an interrupted run never leaves a
// truncated graph behind.
//
// Exit codes: 0 success, 1 build or I/O error, 2 usage error, 3 lint
// findings reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ituaval/internal/core"
	"ituaval/internal/san"
)

// writeAtomic writes via a temp file in the destination directory and
// renames it into place, so out is either absent/old or complete.
func writeAtomic(out string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(out), ".sandot-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, out); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

func main() {
	var (
		domains = flag.Int("domains", 2, "number of security domains")
		hosts   = flag.Int("hosts", 2, "hosts per security domain")
		apps    = flag.Int("apps", 1, "number of replicated applications")
		reps    = flag.Int("reps", 3, "replicas per application")
		policy  = flag.String("policy", "domain", `management algorithm: "domain" or "host"`)
		lint    = flag.Bool("lint", false, "run the static model linter instead of exporting DOT (exit 3 on findings)")
		out     = flag.String("o", "", "output file, written atomically (default: stdout)")
	)
	flag.Parse()

	p := core.DefaultParams()
	p.NumDomains = *domains
	p.HostsPerDomain = *hosts
	p.NumApps = *apps
	p.RepsPerApp = *reps
	switch *policy {
	case "domain":
		p.Policy = core.DomainExclusion
	case "host":
		p.Policy = core.HostExclusion
	default:
		fmt.Fprintf(os.Stderr, "sandot: unknown policy %q (want \"domain\" or \"host\")\n", *policy)
		os.Exit(2)
	}
	m, err := core.Build(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sandot: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s\n", m.SAN.Summary())

	if *lint {
		findings := m.SAN.Lint()
		for _, f := range findings {
			fmt.Printf("%s\n", f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "sandot: %d lint finding(s)\n", len(findings))
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "sandot: model is lint-clean")
		return
	}

	write := func(w io.Writer) error { return san.WriteDOT(w, m.SAN) }
	if *out != "" {
		err = writeAtomic(*out, write)
	} else {
		err = write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sandot: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}
