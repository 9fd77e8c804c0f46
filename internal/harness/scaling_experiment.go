package harness

import "fmt"

// runE13 produces the SPE-scaling figure: speedup over one SPE for
// representative workloads as SPEs are added. Expected shape: the
// compute-bound fractal scales near-linearly, the blocked matmul scales
// until memory bandwidth intrudes, and the PPE-merged sort saturates
// early because its serial merge grows with the run count (Amdahl).
func runE13(quick bool) ([]*Table, error) {
	wls := []workload{
		{"julia", map[string]string{"w": "512", "h": "256", "maxiter": "200", "mode": "dynamic"}},
		{"matmul", map[string]string{"n": "256", "t": "64"}},
		{"sort", map[string]string{"elements": fmt.Sprint(1 << 17), "chunk": "4096"}},
	}
	spes := []int{1, 2, 4, 8}
	if quick {
		wls = wls[:1]
		wls[0].params = map[string]string{"w": "128", "h": "64", "maxiter": "64", "mode": "dynamic"}
		spes = []int{1, 4}
	}
	t := newTable("workload\tSPEs\tcycles\tspeedup vs 1", "%s\t%d\t%d\t%.2fx")
	for _, wl := range wls {
		var base uint64
		for _, n := range spes {
			res, err := Run(Spec{Workload: wl.name, Params: wl.params, NumSPEs: n})
			if err != nil {
				return nil, err
			}
			if n == spes[0] {
				base = res.Cycles
			}
			t.add(wl.name, n, res.Cycles, float64(base)/float64(res.Cycles))
		}
	}
	return []*Table{t}, nil
}
