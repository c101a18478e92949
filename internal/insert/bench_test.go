package insert

import (
	"testing"

	"sdpm/internal/access"
	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/layout"
	"sdpm/internal/tracegen"
	"sdpm/internal/workloads"
)

// table1Input is one workload's request sites at the paper's Table 1
// settings (eight disks, 64KB stripe units, staggered placement, the
// workload's cache capacity and cycle model).
type table1Input struct {
	name  string
	files []string
	sites []tracegen.Site
	model *cycles.Model
}

func table1Inputs(tb testing.TB) []table1Input {
	tb.Helper()
	var out []table1Input
	for _, b := range workloads.All() {
		sub := layout.MustSubsystem(workloads.DefaultDisks)
		if err := access.PlaceArraysStaggered(b.Program, sub, workloads.DefaultDisks, workloads.UnitBytes); err != nil {
			tb.Fatal(err)
		}
		ss, err := tracegen.Sites(b.Program, sub, b.CacheUnits)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, table1Input{name: b.Name, files: sub.Files(), sites: ss, model: b.Model()})
	}
	return out
}

// BenchmarkInstrument times call insertion for all six workloads per
// operation, once per mode.
func BenchmarkInstrument(b *testing.B) {
	ins := table1Inputs(b)
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"tpm", ModeTPM}, {"drpm", ModeDRPM}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var calls int
			for i := 0; i < b.N; i++ {
				calls = 0
				for _, in := range ins {
					_, plan, err := Instrument(in.name, in.files, workloads.DefaultDisks, in.sites, Options{
						Mode: mode.mode, Disk: disk.DefaultParams(), Model: in.model,
					})
					if err != nil {
						b.Fatal(err)
					}
					calls += plan.Ops
				}
			}
			b.ReportMetric(float64(calls), "calls/op")
		})
	}
}
