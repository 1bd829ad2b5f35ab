// Command clipprof runs the smart profiling module for one application
// (or the whole suite) and prints the knowledge-database record:
// affinity decision, classification, event features and predicted
// inflection point. With -db it persists the knowledge database.
//
// Usage:
//
//	clipprof -app tealeaf
//	clipprof -suite -db knowledge.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	appName := flag.String("app", "", "application to profile")
	suite := flag.Bool("suite", false, "profile the whole Table II suite")
	dbPath := flag.String("db", "", "persist the knowledge database as JSON to this path")
	flag.Parse()

	cl := hw.Haswell()
	clip, err := core.New(cl)
	if err != nil {
		fatal(err)
	}

	var apps []*workload.Spec
	switch {
	case *suite:
		apps = workload.Suite()
	case *appName != "":
		app, err := workload.SuiteByName(*appName)
		if err != nil {
			fatal(err)
		}
		apps = []*workload.Spec{app}
	default:
		fmt.Fprintln(os.Stderr, "clipprof: need -app NAME or -suite")
		os.Exit(2)
	}

	t := trace.NewTable("application", "affinity", "ratio_half/all", "class",
		"predicted_NP", "mem_GB/s(all)", "bytes/iter_GB")
	for _, app := range apps {
		p, err := clip.Profile(app)
		if err != nil {
			fatal(err)
		}
		t.Add(p.App, p.Affinity.String(), p.Ratio, p.Class.String(),
			p.PredictedNP, p.All.MemBW, p.BytesPerIter)
	}
	t.Render(os.Stdout)

	if *dbPath != "" {
		db := clip.Knowledge().Profiles()
		if err := profile.SaveDB(*dbPath, db); err != nil {
			fatal(err)
		}
		fmt.Printf("\nknowledge database (%d entries) written to %s\n", len(db), *dbPath)
		// Round-trip check so a corrupt write is caught immediately.
		if _, err := profile.LoadDB(*dbPath); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clipprof:", err)
	os.Exit(1)
}
