package main

import "fmt"

// beyond counts the samples above d's q-quantile.
func beyond(d dist, q float64) int {
	v := d.quantile(q)
	n := 0
	for _, x := range d {
		if x > v {
			n++
		}
	}
	return n
}

// report prints the human-readable part of a run: every end-to-end
// metric with its unit and sample count, the whole-mix p99 and the
// per-route open-loop percentiles, the latency limit and the run's
// validity.
func report(w *workload, o options, clients int, e2e map[string]float64, reps repTimes, opens, closeds []phase, lag dist, layer map[string]float64, res *result) {
	open, closed := merge(opens), merge(closeds)
	fmt.Printf("setup_s %.4f s (median of %d set-ups: %.4v)\n", e2e["setup_s"], len(reps.setup), reps.setup)
	fmt.Printf("heap_mb %.2f MB (live heap after set-up and a forced GC)\n", e2e["heap_mb"])
	fmt.Printf("throughput_rps %.1f req/s (closed loop, %d clients; mean of %d rounds without the fastest and the slowest; pooled %d completions in %.2f s)\n",
		e2e["throughput_rps"], clients, rounds, closed.ok(), closed.wall.Seconds())
	fmt.Printf("  closed-loop req/s by round: %.1f\n", roundRates(closeds))
	all := open.latencies(-1)
	fmt.Printf("open loop: %d arrivals at %g req/s over %.2f s in %d rounds\n", len(open.samples), w.rate, open.wall.Seconds(), rounds)
	fmt.Printf("service_ms %.4f ms (geometric mean over %d request classes of each class's fastest open-loop latency; n=%d)\n",
		e2e["service_ms"], classes(&open), len(all))
	fmt.Printf("p50_ms %.4f ms (n=%d)\n", ms(all.quantile(0.5)), len(all))
	fmt.Printf("  open-loop p50 ms by round: %.4f\n", roundP50s(opens))
	fmt.Printf("p90_ms %.4f ms (median over %d rounds of the round p90; n=%d, %d beyond the pooled p90)\n",
		ms(medianQuantile(opens, 0.9)), rounds, len(all), beyond(all, 0.90))
	fmt.Printf("p99_ms %.4f ms (n=%d, %d beyond)\n", ms(all.quantile(0.99)), len(all), beyond(all, 0.99))
	for r, name := range routeNames {
		d := open.latencies(r)
		if len(d) == 0 {
			continue
		}
		p99 := "n/a (fewer than ten samples beyond)"
		if d.supports(0.99) {
			p99 = fmt.Sprintf("%.4f ms", ms(d.quantile(0.99)))
		}
		tail, tv := d.tail()
		fmt.Printf("%s_p50_ms %.4f ms  %s_p99_ms %s  (n=%d; highest supported %s %.4f ms)\n",
			name, ms(d.quantile(0.5)), name, p99, len(d), tail, ms(tv))
	}
	fmt.Printf("fail_frac %.6f (%d of %d attempted failed or mismatched)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Printf("ok_frac %.6f\n", e2e["ok_frac"])
	missed := 0
	for _, s := range open.samples {
		if s.v != verdictOK || s.lat > w.limit {
			missed++
		}
	}
	met := float64(missed) <= 0.01*float64(len(open.samples))
	fmt.Printf("latency limit p99 <= %v at %g req/s: met=%v (%d of %d open-loop requests failed or exceeded it)\n",
		w.limit, w.rate, met, missed, len(open.samples))
	lagP99 := lag.quantile(0.99)
	fmt.Printf("harness.lag_p99_ms %.4f ms; run valid=%v (bound %v)\n", ms(lagP99), lagP99 <= lagBound, lagBound)
	if o.trace {
		for _, mt := range perLayer {
			fmt.Printf("  %-32s %12.4f %s\n", mt.name, layer[mt.name], mt.unit)
		}
	}
}
