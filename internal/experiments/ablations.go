package experiments

import (
	"fmt"

	"sdpm/internal/core"
	"sdpm/internal/sim"
	"sdpm/internal/stats"
	"sdpm/internal/workloads"
	"sdpm/internal/xform"
)

// selected returns the suite benchmarks passing the filter, keeping
// Table 2 order (the canonical row order of every ablation table).
func (s *Suite) selected(keep func(*workloads.Benchmark) bool) []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, b := range s.Benchmarks {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// AblationPreactivation quantifies the value of the pre-activation
// calls (Equation 1): CMDRPM energy and time with and without them,
// normalized to base. Without pre-activation, every access after a
// power-down pays the wake-up latency on demand.
func (s *Suite) AblationPreactivation() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: pre-activation (normalized energy | time)",
		Columns: []string{"CMDRPM-E", "CMDRPM-T", "noPre-E", "noPre-T"},
	}
	rows := make([][]float64, len(s.Benchmarks))
	err := s.pool().Map(len(s.Benchmarks), func(i int) error {
		b := s.Benchmarks[i]
		cfg := s.configFor(b)
		vals, err := s.cell(s.cellKey("preact", &cfg, b.Name), 4, func() ([]float64, error) {
			in, err := s.memo().Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				return nil, err
			}
			base, err := in.Run(core.Base)
			if err != nil {
				return nil, err
			}
			on, err := in.Run(core.CMDRPM)
			if err != nil {
				return nil, err
			}
			cfgOff := cfg
			cfgOff.DisablePreactivation = true
			inOff, err := s.memo().Prepare(b.Name, b.Program, cfgOff, nil)
			if err != nil {
				return nil, err
			}
			off, err := inOff.Run(core.CMDRPM)
			if err != nil {
				return nil, err
			}
			return []float64{
				on.EnergyJ / base.EnergyJ, on.ExecMS / base.ExecMS,
				off.EnergyJ / base.EnergyJ, off.ExecMS / base.ExecMS}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range s.Benchmarks {
		t.Add(b.Name, rows[i][0], rows[i][1], rows[i][2], rows[i][3])
	}
	return t.WithMeanRow(), nil
}

// AblationNoise sweeps the cycle-estimation bias on one benchmark and
// reports the resulting misprediction rate and the CMDRPM energy and
// time (normalized) — the mechanism behind Table 3.
func (s *Suite) AblationNoise(benchName string, biasLevels []float64) (*stats.Table, error) {
	if len(biasLevels) == 0 {
		biasLevels = []float64{0, 10, 20, 40}
	}
	b, err := workloads.ByName(benchName)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:     "Ablation: cycle-estimation bias vs misprediction (" + b.Name + ")",
		Columns:   []string{"mispredict%", "CMDRPM-E", "CMDRPM-T"},
		Precision: 3,
	}
	rows := make([][]float64, len(biasLevels))
	err = s.pool().Map(len(biasLevels), func(i int) error {
		cfg := s.configFor(b)
		m := b.Model()
		m.BiasPct = biasLevels[i]
		cfg.Model = m
		vals, err := s.cell(s.cellKey("noise", &cfg, b.Name), 3, func() ([]float64, error) {
			in, err := s.memo().Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				return nil, err
			}
			base, err := in.Run(core.Base)
			if err != nil {
				return nil, err
			}
			cm, err := in.Run(core.CMDRPM)
			if err != nil {
				return nil, err
			}
			st, err := in.Mispredictions()
			if err != nil {
				return nil, err
			}
			return []float64{st.Pct, cm.EnergyJ / base.EnergyJ, cm.ExecMS / base.ExecMS}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, bias := range biasLevels {
		t.Add(fmt.Sprintf("bias %g%%", bias), rows[i][0], rows[i][1], rows[i][2])
	}
	return t, nil
}

// AblationCache compares request counts and base energy with and
// without the buffer cache; without it every stripe-unit touch
// becomes a disk request.
func (s *Suite) AblationCache() (*stats.Table, error) {
	t := &stats.Table{
		Title:     "Ablation: buffer cache (requests and base energy)",
		Columns:   []string{"reqs", "reqs-nocache", "E", "E-nocache"},
		Precision: 0,
	}
	// The cacheless traces of the two largest workloads are enormous;
	// the remaining benchmarks demonstrate the effect.
	benches := s.selected(func(b *workloads.Benchmark) bool {
		return b.Name != "wupwise" && b.Name != "mgrid"
	})
	rows := make([][]float64, len(benches))
	err := s.pool().Map(len(benches), func(i int) error {
		b := benches[i]
		cfg := s.configFor(b)
		vals, err := s.cell(s.cellKey("cache", &cfg, b.Name), 4, func() ([]float64, error) {
			in, err := s.memo().Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				return nil, err
			}
			res, err := in.Run(core.Base)
			if err != nil {
				return nil, err
			}
			cfgNC := cfg
			cfgNC.NoCache = true
			inNC, err := s.memo().Prepare(b.Name, b.Program, cfgNC, nil)
			if err != nil {
				return nil, err
			}
			resNC, err := inNC.Run(core.Base)
			if err != nil {
				return nil, err
			}
			return []float64{float64(len(in.Sites)), float64(len(inNC.Sites)), res.EnergyJ, resNC.EnergyJ}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.Add(b.Name, rows[i][0], rows[i][1], rows[i][2], rows[i][3])
	}
	return t, nil
}

// AblationClustering isolates the nest-clustering step of LF+DL:
// fission plus proportional disk allocation, with and without
// reordering the fissioned nests by array group.
func (s *Suite) AblationClustering() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: LF+DL nest clustering (normalized CMDRPM energy)",
		Columns: []string{"LF+DL", "LF+DL-nocluster"},
	}
	benches := s.selected(func(b *workloads.Benchmark) bool { return b.Fissionable })
	rows := make([][]float64, len(benches))
	err := s.pool().Map(len(benches), func(i int) error {
		b := benches[i]
		cfg := s.configFor(b)
		vals, err := s.cell(s.cellKey("clustering", &cfg, b.Name), 2, func() ([]float64, error) {
			orig, err := s.memo().Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				return nil, err
			}
			base, err := orig.Run(core.Base)
			if err != nil {
				return nil, err
			}
			with, err := s.lfdlEnergy(b, cfg, true)
			if err != nil {
				return nil, err
			}
			without, err := s.lfdlEnergy(b, cfg, false)
			if err != nil {
				return nil, err
			}
			return []float64{with / base.EnergyJ, without / base.EnergyJ}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.Add(b.Name, rows[i][0], rows[i][1])
	}
	return t.WithMeanRow(), nil
}

// lfdlEnergy runs CMDRPM on the LF+DL version of a benchmark,
// optionally skipping the clustering step. The transformed program is
// built fresh on every call; the memo shares its compiler stages by
// content (the clustered program is Figure 13's LF+DL version).
func (s *Suite) lfdlEnergy(b *workloads.Benchmark, cfg core.Config, cluster bool) (float64, error) {
	fp := xform.Fission(b.Program)
	if cluster {
		fp = xform.ClusterByGroup(fp)
	}
	groups := xform.ArrayGroups(fp)
	st, err := xform.AssignGroupDisks(groups, cfg.NumDisks, cfg.UnitBytes)
	if err != nil {
		return 0, err
	}
	in, err := s.memo().Prepare(b.Name+"/lfdl", fp, cfg, st)
	if err != nil {
		return 0, err
	}
	res, err := in.Run(core.CMDRPM)
	if err != nil {
		return 0, err
	}
	return res.EnergyJ, nil
}

// AblationOpenLoop contrasts the closed-loop execution model (request
// n+1 issues after request n completes — the paper's setting, where
// power-management delays stretch the application) with classical
// open-loop trace replay, under the reactive and oracle DRPM schemes.
func (s *Suite) AblationOpenLoop() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: closed vs open loop (normalized energy | time)",
		Columns: []string{"DRPM-E", "DRPM-T", "openDRPM-E", "openDRPM-T", "openIDRPM-E"},
	}
	benches := s.selected(func(b *workloads.Benchmark) bool {
		return b.Name != "wupwise" && b.Name != "mgrid" // keep the ablation quick; the others suffice
	})
	rows := make([][]float64, len(benches))
	err := s.pool().Map(len(benches), func(i int) error {
		b := benches[i]
		cfg := s.configFor(b)
		vals, err := s.cell(s.cellKey("openloop", &cfg, b.Name), 5, func() ([]float64, error) {
			in, err := s.instance(b)
			if err != nil {
				return nil, err
			}
			base, err := in.Run(core.Base)
			if err != nil {
				return nil, err
			}
			openBase, err := in.RunOpen(core.Base)
			if err != nil {
				return nil, err
			}
			dr, err := in.Run(core.DRPM)
			if err != nil {
				return nil, err
			}
			openDr, err := in.RunOpen(core.DRPM)
			if err != nil {
				return nil, err
			}
			openId, err := in.RunOpen(core.IDRPM)
			if err != nil {
				return nil, err
			}
			return []float64{
				dr.EnergyJ / base.EnergyJ, dr.ExecMS / base.ExecMS,
				openDr.EnergyJ / openBase.EnergyJ, openDr.ExecMS / openBase.ExecMS,
				openId.EnergyJ / openBase.EnergyJ}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.Add(b.Name, rows[i][0], rows[i][1], rows[i][2], rows[i][3], rows[i][4])
	}
	return t.WithMeanRow(), nil
}

// AblationSeekModel contrasts the datasheet average-seek model with
// the distance-dependent square-root seek curve: the workloads'
// mostly-sequential accesses seek far less than average, so base
// energy and time drop.
func (s *Suite) AblationSeekModel() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: average vs distance-dependent seek (base runs)",
		Columns: []string{"E-avg", "E-dist", "T-avg", "T-dist"},
	}
	benches := s.selected(func(b *workloads.Benchmark) bool { return b.Name != "wupwise" })
	rows := make([][]float64, len(benches))
	err := s.pool().Map(len(benches), func(i int) error {
		b := benches[i]
		cfg := s.configFor(b)
		vals, err := s.cell(s.cellKey("seekmodel", &cfg, b.Name), 4, func() ([]float64, error) {
			in, err := s.memo().Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				return nil, err
			}
			avg, err := in.Run(core.Base)
			if err != nil {
				return nil, err
			}
			cfgD := cfg
			cfgD.DistanceAwareSeek = true
			inD, err := s.memo().Prepare(b.Name, b.Program, cfgD, nil)
			if err != nil {
				return nil, err
			}
			dist, err := inD.Run(core.Base)
			if err != nil {
				return nil, err
			}
			return []float64{avg.EnergyJ, dist.EnergyJ, avg.ExecMS, dist.ExecMS}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.Add(b.Name, rows[i][0], rows[i][1], rows[i][2], rows[i][3])
	}
	return t, nil
}

// EnergyBreakdown reports where each scheme's energy goes (active /
// idle-spinning / standby / transitions), per benchmark, for the base
// and compiler-managed DRPM schemes. It makes the proactive scheme's
// mechanism visible: base energy is almost entirely full-speed
// idling; CMDRPM converts most of it into low-RPM residency plus
// transition costs.
func (s *Suite) EnergyBreakdown() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Energy breakdown (J): base vs CMDRPM",
		Columns: []string{
			"base-active", "base-idle",
			"cm-active", "cm-idle", "cm-trans", "cm-standby",
		},
		Precision: 1,
	}
	rows := make([][]float64, len(s.Benchmarks))
	err := s.pool().Map(len(s.Benchmarks), func(i int) error {
		b := s.Benchmarks[i]
		cfg := s.configFor(b)
		vals, err := s.cell(s.cellKey("breakdown", &cfg, b.Name), 6, func() ([]float64, error) {
			in, err := s.instance(b)
			if err != nil {
				return nil, err
			}
			base, err := in.Run(core.Base)
			if err != nil {
				return nil, err
			}
			cm, err := in.Run(core.CMDRPM)
			if err != nil {
				return nil, err
			}
			sum := func(r *sim.Result) (a, i, tr, sb float64) {
				for _, st := range r.Disks {
					a += st.ActiveEnergyJ
					i += st.IdleEnergyJ
					tr += st.TransitionEnergyJ
					sb += st.StandbyEnergyJ
				}
				return
			}
			ba, bi, _, _ := sum(base)
			ca, ci, ct, cs := sum(cm)
			return []float64{ba, bi, ca, ci, ct, cs}, nil
		})
		rows[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range s.Benchmarks {
		t.Add(b.Name, rows[i][0], rows[i][1], rows[i][2], rows[i][3], rows[i][4], rows[i][5])
	}
	return t, nil
}
