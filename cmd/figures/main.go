// Command figures regenerates the tables and figures of the paper's
// evaluation (§IV). With no arguments it lists the available experiments;
// pass experiment ids (e.g. "fig9 table3") or "all" to run them. Output is
// aligned text; every table names the paper result it should be compared
// against, and DESIGN.md §3 indexes the experiments.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Println("usage: figures <experiment-id>... | all")
		fmt.Println("\navailable experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		return
	}
	var todo []experiments.NamedExperiment
	if len(args) == 1 && args[0] == "all" {
		todo = experiments.All()
	} else {
		for _, id := range args {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "figures: unknown experiment %q (run with no args for the list)\n", id)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		start := time.Now()
		table := e.Make()
		table.Render(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
