package tracegen

import (
	"testing"

	"sdpm/internal/access"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/workloads"
)

// table1Program is one workload placed as the experiments place it at
// the paper's Table 1 settings: eight disks, 64KB stripe units,
// staggered start disks, and the workload's own cache capacity.
type table1Program struct {
	name       string
	prog       *ir.Program
	sub        *layout.Subsystem
	cacheUnits int
}

func table1Programs(tb testing.TB) []table1Program {
	tb.Helper()
	var out []table1Program
	for _, b := range workloads.All() {
		sub := layout.MustSubsystem(workloads.DefaultDisks)
		if err := access.PlaceArraysStaggered(b.Program, sub, workloads.DefaultDisks, workloads.UnitBytes); err != nil {
			tb.Fatal(err)
		}
		out = append(out, table1Program{name: b.Name, prog: b.Program, sub: sub, cacheUnits: b.CacheUnits})
	}
	return out
}

// BenchmarkSites times site generation (the access walker filtered
// through the buffer cache) for all six workloads per operation.
func BenchmarkSites(b *testing.B) {
	progs := table1Programs(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		for _, w := range progs {
			ss, err := Sites(w.prog, w.sub, w.cacheUnits)
			if err != nil {
				b.Fatal(err)
			}
			n += len(ss)
		}
	}
	b.ReportMetric(float64(n), "sites/op")
}
