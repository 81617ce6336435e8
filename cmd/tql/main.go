// tql runs TQL queries against a single-file TDE database.
//
// Usage:
//
//	tql -db flights.tde [-plan] [-serial] '<query>'
//	tql -db flights.tde            # interactive: one query per line
//	tql -demo '<query>'            # query a built-in synthetic flights db
//
// Example query:
//
//	(topn (aggregate (table flights) (groupby carrier)
//	      (aggs (n count *) (a avg delay))) 5 (desc n))
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"vizq/internal/tde/engine"
	"vizq/internal/tde/plan"
	"vizq/internal/workload"
)

func main() {
	dbPath := flag.String("db", "", "path to a .tde database file")
	demo := flag.Bool("demo", false, "use a built-in synthetic flights database")
	showPlan := flag.Bool("plan", false, "print the optimized plan instead of executing")
	serial := flag.Bool("serial", false, "disable parallel plans")
	rows := flag.Int("rows", 100_000, "row count for -demo")
	flag.Parse()

	var eng *engine.Engine
	switch {
	case *demo:
		db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: *rows, Days: 365, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		eng = engine.New(db)
	case *dbPath != "":
		var err error
		eng, err = engine.Open(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("tql: provide -db <file.tde> or -demo")
	}
	if *serial {
		o := eng.Options()
		o.MaxDOP = 1
		eng.SetOptions(o)
	}

	run := func(src string) {
		src = strings.TrimSpace(src)
		if src == "" {
			return
		}
		if *showPlan {
			p, err := eng.Plan(src)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Print(plan.Format(p))
			return
		}
		res, err := eng.Query(context.Background(), src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Print(res)
		fmt.Printf("(%d rows)\n", res.N)
	}

	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "))
		return
	}
	// No arguments: read one query per line from stdin.
	fmt.Println("tql> enter one query per line (tables:", tableList(eng), ")")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("tql> ")
		if !sc.Scan() {
			return
		}
		run(sc.Text())
	}
}

func tableList(eng *engine.Engine) string {
	var names []string
	for _, t := range eng.Database().AllTables() {
		names = append(names, t.QualifiedName())
	}
	return strings.Join(names, ", ")
}
