package main

// A/A mode: two full sets of the same code, compared metric by metric
// against the bounds BENCHMARK.json fixes. If the benchmark cannot tell a
// commit from itself within its own bounds, the bounds are wrong.

import (
	"fmt"
	"math"
)

// runAA runs set A then set B and prints, per workload × end-to-end metric,
// the two values, their ratio and the bound. It returns the exit code: 1 if
// any pair disagrees by more than its bound or any check failed.
func runAA(all []workload, opt options) int {
	start := now()
	a := runSet(all, opt, true)
	b := runSet(all, opt, true)
	fmt.Println(facts(opt.Seed, start))
	fmt.Printf("%-10s %-14s %12s %12s %8s %7s\n", "workload", "metric", "A", "B", "B/A", "bound")
	code := 0
	for i := range all {
		ma, mb := a[i].endToEnd(), b[i].endToEnd()
		for _, d := range endToEnd {
			va, vb := ma[d.Name].Value, mb[d.Name].Value
			ratio := vb / va
			verdict := ""
			if math.Abs(ratio-1) > d.Bound || math.IsNaN(ratio) {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-10s %-14s %12.6g %12.6g %8.4f %6.0f%%%s\n",
				all[i].Name, d.Name, va, vb, ratio, 100*d.Bound, verdict)
		}
		for _, set := range [][]*result{a, b} {
			r := set[i]
			att, failed := r.attempted()
			fmt.Printf("%-10s %-14s %d of %d periods failed, digest %016x\n", all[i].Name, "failed_frac", failed, att, r.digest())
			for _, p := range r.problems() {
				fmt.Printf("%-10s FAILED: %s\n", all[i].Name, p)
				code = 1
			}
		}
		if a[i].digest() != b[i].digest() {
			fmt.Printf("%-10s FAILED: sets A and B end in different states\n", all[i].Name)
			code = 1
		}
	}
	return code
}
