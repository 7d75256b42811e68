package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// outcome is what one round of a workload reports. Every field of virt is a
// virtual-time result: a pure function of the inputs and the seed, so a
// traced round must reproduce it bit for bit.
type outcome struct {
	virtBytes, virtSecs float64 // payload and virtual time of the collective I/O
	p50, p99            float64 // per-call collective latency, virtual seconds
	calls               int     // collective I/O calls made
	virt                map[string]float64
	layers              map[string]float64 // traced rounds only
}

type workloadRunner interface {
	// setup brings up the simulated machine and opens the workload's files
	// collectively, moving no data.
	setup() error
	// round runs the workload once, its simulations timed by m. A traced
	// round arms the layers' observers and fills outcome.layers.
	round(m *meter, traced bool) (outcome, error)
}

// pass is one simulation of a collective workload on a fresh machine: every
// rank opens the file, sets its view, writes its steps collectively, then
// reads them back collectively.
type pass struct {
	spec  job.Spec
	scale float64
	file  string
	view  func(rank, procs int) datatype.View
	step  int64 // rank bytes per step
	steps int
}

func (ps pass) preset() (experiments.Preset, error) {
	p := experiments.PaperPreset()
	err := p.ApplySpec(ps.spec)
	return p, err
}

// passResult is a finished pass as the benchmark saw it.
type passResult struct {
	got         [][]byte // each rank's read-back, all steps
	bd          []mpiio.Breakdown
	span        []float64 // each rank's virtual time from open to last call
	write, read float64   // virtual elapsed of the write and read phases
	makespan    float64
	plan        core.Plan
	calls       int // collective calls the pass recorded
	stats       sim.Stats
	fs          storage.Backend
	stripe      storage.Stripe
	reg         *obs.Registry // traced passes only
	preset      experiments.Preset
}

func (ps pass) setup() error {
	p, err := ps.preset()
	if err != nil {
		return err
	}
	env := experiments.EnvFor(p, ps.scale, experiments.OptionsFor(ps.spec))
	mpi.RunPlanWorkers(ps.spec.Procs, p.Cluster, p.Seed, p.Fault, p.Workers, func(r *mpi.Rank) {
		comm := mpi.WorldComm(r)
		f := core.Open(comm, env.FS, ps.file, env.Stripe, env.Opts)
		f.SetView(ps.view(comm.Rank(), comm.Size()))
		comm.Barrier()
	})
	return nil
}

// run simulates the pass, adding its collective call latencies to lat.
func (ps pass) run(data [][]byte, m *meter, traced bool, lat *obs.LatencyRecorder) (passResult, error) {
	p, err := ps.preset()
	if err != nil {
		return passResult{}, err
	}
	n := ps.spec.Procs
	out := passResult{
		got:    make([][]byte, n),
		bd:     make([]mpiio.Breakdown, n),
		span:   make([]float64, n),
		preset: p,
	}
	calls0 := lat.Count()
	opts := experiments.OptionsFor(ps.spec)
	opts.Run.Lat = lat
	if traced {
		out.reg = obs.New()
		opts.Run.Obs = out.reg
	}
	env := experiments.EnvFor(p, ps.scale, opts)
	if traced {
		env.FS.SetObs(out.reg)
	}
	out.fs, out.stripe = env.FS, env.Stripe
	// The program gets its own copy of the input: nothing it does to the
	// buffers can leak into the next pass or into the checks.
	in := make([][]byte, n)
	for i := range in {
		in[i] = append([]byte(nil), data[i]...)
	}
	// Each rank's virtual clock when it starts writing, ends writing and
	// ends reading.
	t0, t1, t2 := make([]float64, n), make([]float64, n), make([]float64, n)
	m.run(func() {
		out.makespan, out.stats = mpi.RunPlanWorkers(n, p.Cluster, p.Seed, p.Fault, p.Workers, func(r *mpi.Rank) {
			if traced {
				r.SetObs(out.reg)
			}
			comm := mpi.WorldComm(r)
			me := comm.Rank()
			open := r.Now()
			f := core.Open(comm, env.FS, ps.file, env.Stripe, env.Opts)
			f.SetView(ps.view(me, n))
			comm.Barrier()
			t0[me] = r.Now()
			for s := 0; s < ps.steps; s++ {
				off := int64(s) * ps.step
				f.WriteAtAll(off, in[me][off:off+ps.step])
			}
			t1[me] = r.Now()
			got := make([]byte, 0, int64(ps.steps)*ps.step)
			for s := 0; s < ps.steps; s++ {
				got = append(got, f.ReadAtAll(int64(s)*ps.step, ps.step)...)
			}
			t2[me] = r.Now()
			out.bd[me] = f.Breakdown()
			out.span[me] = t2[me] - open
			out.got[me] = got
			if me == 0 {
				out.plan = f.LastPlan()
			}
		})
	})
	// Each phase ends when its last rank does. The phase times are reduced
	// here, after the simulation, so the measured pass makes only the
	// program's own collective calls.
	out.write = maxOf(t1) - maxOf(t0)
	out.read = maxOf(t2) - maxOf(t1)
	out.calls = lat.Count() - calls0
	return out, nil
}

// imageOf reads a finished pass's file through a one-rank simulation of its
// own, so the read costs nothing in the measured one.
func (pr passResult) imageOf(name string) []byte {
	var img []byte
	mpi.Run(1, pr.preset.Cluster, 1, func(r *mpi.Rank) {
		img = pr.fs.Open(r, name, pr.stripe).Contents()
	})
	return img
}

// check runs the checks every pass must pass: read-back equals the input,
// the breakdown is sane, and the partition has the method's properties.
func (ps pass) check(pr passResult, data [][]byte) error {
	for rank := range data {
		if i := firstDiff(pr.got[rank], data[rank]); i >= 0 {
			return fmt.Errorf("%s groups=%d: rank %d read back a wrong byte at offset %d", ps.file, ps.spec.Groups, rank, i)
		}
		if err := checkBreakdown(rank, pr.bd[rank], pr.span[rank]); err != nil {
			return fmt.Errorf("%s groups=%d: %w", ps.file, ps.spec.Groups, err)
		}
	}
	if ps.spec.Groups > 1 {
		if err := checkPlan(pr.plan, ps.spec.Procs, pr.preset.Cluster, ps.spec.Groups); err != nil {
			return fmt.Errorf("%s groups=%d: %w", ps.file, ps.spec.Groups, err)
		}
	}
	if want := 2 * ps.steps * ps.spec.Procs; pr.calls != want {
		return fmt.Errorf("%s groups=%d: %d collective calls recorded, want %d", ps.file, ps.spec.Groups, pr.calls, want)
	}
	return nil
}

// collective is a workload of two passes over the same input: extended
// two-phase I/O (one group) and then ParColl.
type collective struct {
	passes [2]pass
	data   [][]byte
	// image, when set, is the file every pass must leave behind.
	image []byte
}

func (c *collective) setup() error {
	for _, ps := range c.passes {
		if err := ps.setup(); err != nil {
			return err
		}
	}
	return nil
}

func (c *collective) round(m *meter, traced bool) (outcome, error) {
	out := outcome{virt: map[string]float64{}}
	lat := obs.NewLatencyRecorder()
	var res [2]passResult
	var makespan float64
	for i, ps := range c.passes {
		pr, err := ps.run(c.data, m, traced, lat)
		if err != nil {
			return out, err
		}
		if err := ps.check(pr, c.data); err != nil {
			return out, err
		}
		if c.image != nil {
			if i := firstDiff(pr.imageOf(ps.file), c.image); i >= 0 {
				return out, fmt.Errorf("%s groups=%d: file image differs from the tile geometry at byte %d", ps.file, ps.spec.Groups, i)
			}
		}
		bytes := 2 * float64(int64(ps.steps)*ps.step*int64(ps.spec.Procs)) * ps.scale
		out.virtBytes += bytes
		out.virtSecs += pr.write + pr.read
		g := fmt.Sprintf("g%d.", ps.spec.Groups)
		out.virt[g+"write"], out.virt[g+"read"], out.virt[g+"makespan"] = pr.write, pr.read, pr.makespan
		res[i] = pr
		out.calls += pr.calls
		makespan = math.Max(makespan, pr.makespan)
	}
	out.p50, out.p99 = lat.Quantile(0.5), lat.Quantile(0.99)
	if err := checkQuantiles(out.p50, out.p99, makespan); err != nil {
		return out, err
	}
	out.virt["p50"], out.virt["p99"] = out.p50, out.p99
	for i, pr := range res {
		mean := rankMean(pr.bd)
		g := fmt.Sprintf("g%d.", c.passes[i].spec.Groups)
		out.virt[g+"sync"], out.virt[g+"exchange"], out.virt[g+"io"], out.virt[g+"other"] = mean.Sync, mean.Exchange, mean.IO, mean.Other
	}
	if traced {
		out.layers = c.layers(res)
	}
	return out, nil
}

func rankMean(bds []mpiio.Breakdown) mpiio.Breakdown {
	var sum mpiio.Breakdown
	for _, b := range bds {
		sum.Add(b)
	}
	n := float64(len(bds))
	return mpiio.Breakdown{Sync: sum.Sync / n, Exchange: sum.Exchange / n, IO: sum.IO / n, Other: sum.Other / n}
}

// layers gathers the per-layer figures of a traced round.
func (c *collective) layers(res [2]passResult) map[string]float64 {
	l := map[string]float64{}
	var events uint64
	for i, pr := range res {
		st := pr.stats
		events += st.Events()
		l["sim.events"] += float64(st.Events())
		l["sim.resumes"] += float64(st.Resumes.Value())
		l["sim.sends"] += float64(st.Sends.Value())
		l["sim.advances"] += float64(st.Advances.Value())
		l["sim.wildcard_scanned"] += float64(st.WildcardScanned.Value())
		l["sim.perturbed"] += float64(st.Perturbed.Value())
		if d := float64(st.MaxReadyDepth); d > l["sim.ready_max_depth"] {
			l["sim.ready_max_depth"] = d
		}

		snap := pr.reg.Snapshot()
		for _, cp := range snap.Counters {
			switch {
			case strings.HasPrefix(cp.Name, "mpi.coll.") && strings.HasSuffix(cp.Name, ".calls"):
				l["mpi.coll_calls"] += float64(cp.Value)
			case strings.HasPrefix(cp.Name, "mpi.coll.") && strings.HasSuffix(cp.Name, ".bytes"):
				l["mpi.coll_bytes"] += float64(cp.Value)
			case cp.Name == "mpi.p2p.inter.msgs":
				l["mpi.p2p_inter_msgs"] += float64(cp.Value)
			case cp.Name == "mpi.p2p.inter.bytes":
				l["mpi.p2p_inter_bytes"] += float64(cp.Value)
			case cp.Name == "mpi.p2p.intra.msgs":
				l["mpi.p2p_intra_msgs"] += float64(cp.Value)
			}
		}
		for _, h := range snap.Histograms {
			if h.Name == "mpiio.round.sync.secs" {
				l["mpiio.rounds"] += float64(h.Count)
			}
		}
		mean := rankMean(pr.bd)
		l["mpiio.sync_virtual_s"] += mean.Sync
		l["mpiio.exchange_virtual_s"] += mean.Exchange
		l["mpiio.io_virtual_s"] += mean.IO
		l["mpiio.other_virtual_s"] += mean.Other

		ps := c.passes[i]
		bw := 2 * float64(int64(ps.steps)*ps.step*int64(ps.spec.Procs)) * ps.scale / (pr.write + pr.read) / 1e6
		if i == 0 {
			l["core.ext2ph_bw_MBps"] = bw
		} else {
			l["core.parcoll_bw_MBps"] = bw
			for _, a := range pr.plan.Aggregators {
				l["core.aggregators"] += float64(len(a))
			}
		}

		for _, ts := range pr.fs.Stats() {
			l["storage.requests"] += float64(ts.Requests)
			l["storage.bytes"] += float64(ts.Bytes)
			l["storage.switches"] += float64(ts.Switches)
			if ts.BusySecs > l["storage.busy_max_virtual_s"] {
				l["storage.busy_max_virtual_s"] = ts.BusySecs
			}
		}
	}
	l["core.parcoll_speedup"] = l["core.parcoll_bw_MBps"] / l["core.ext2ph_bw_MBps"]
	return l
}

// newTileWall is the paper's Fig 1/Fig 9 collective wall: the MPI-Tile-IO
// array at 512 procs, written and read back by ext2ph and by ParColl-64.
func newTileWall(seed int64) workloadRunner {
	const procs = 512
	tile := experiments.PaperPreset().Tile
	c := &collective{}
	for i, groups := range []int{1, 64} {
		c.passes[i] = pass{
			spec:  job.Spec{Workload: job.WorkloadTileIO, Procs: procs, Groups: groups, Seed: seed, Workers: 1},
			scale: experiments.PaperPreset().TileScale,
			file:  "tile",
			view:  tile.View,
			step:  tile.TileX * tile.TileY * tile.Elem,
			steps: 1,
		}
	}
	c.data = make([][]byte, procs)
	for r := range c.data {
		c.data[r] = fill(seed, r, c.passes[0].step)
	}
	c.image = tileImage(seed, procs, tile.TileX, tile.TileY, tile.Elem)
	return c
}

// newBTIONoncontig is the paper's Fig 10: NAS BT-IO full mode at 64 procs,
// ten dumps of a 144^3 solution appended through each rank's scattered
// cells, by ext2ph and by ParColl-4 through the materialized intermediate
// view.
func newBTIONoncontig(seed int64) workloadRunner {
	const procs = 64
	bt := experiments.PaperPreset().BT
	// Diagonal multi-partitioning on a k x k grid: each rank owns k cells
	// of edge N/k.
	k := int64(8)
	cell := bt.N / k
	c := &collective{}
	for i, groups := range []int{1, 4} {
		c.passes[i] = pass{
			spec:  job.Spec{Workload: job.WorkloadBTIO, Procs: procs, Groups: groups, Seed: seed, Workers: 1},
			scale: experiments.PaperPreset().BTScale,
			file:  "bt",
			view:  bt.View,
			step:  k * cell * cell * cell * bt.Elem,
			steps: bt.Steps,
		}
	}
	c.data = make([][]byte, procs)
	for r := range c.data {
		c.data[r] = fill(seed, r, c.passes[0].step*int64(bt.Steps))
	}
	return c
}

// tenants is the ROADMAP's multi-tenant setting: the canonical 4-job mixed
// trace on the burst-buffer backend under fair-share QoS, with one
// straggling rank.
type tenants struct {
	trace tenancy.Trace
	want  map[string]int64 // virtual payload per job, from the geometry
}

func newTenantsBB(seed int64) workloadRunner {
	tr := tenancy.MixedTrace(64)
	tr.Backend, tr.Policy, tr.Scenario = "bb", qos.NameFairShare, "one-straggler"
	tr.Seed, tr.Workers = seed, 1
	p := experiments.PaperPreset()
	scale := int64(p.TileScale) // one cost scale for every tenant
	want := map[string]int64{}
	for _, s := range tr.Jobs {
		n := int64(s.Procs)
		switch s.Workload {
		case job.WorkloadTileIO:
			want[s.Name] = n * p.Tile.TileX * p.Tile.TileY * p.Tile.Elem * scale
		case job.WorkloadBTIO:
			k := int64(1)
			for k*k < n {
				k++
			}
			cell := p.BT.N / k
			want[s.Name] = n * int64(s.Steps) * k * cell * cell * cell * p.BT.Elem * scale
		case job.WorkloadIOR:
			want[s.Name] = n * p.IORBlock * scale
		case job.WorkloadCheckpoint:
			want[s.Name] = n * int64(s.Steps) * s.BlockBytes * scale
		}
	}
	return &tenants{trace: tr, want: want}
}

// setup brings up the trace's shared machine and has every job open its
// file and set its view. tenancy.Run exposes no set-up phase of its own, so
// this mirrors the bring-up in internal/tenancy/run.go step for step —
// validated trace, machine spec from every machine knob of the trace, fault
// plan, shared backend and QoS policy, contiguous rank packing, per-job
// environments, job namespaces and arrivals — and must follow it when it
// changes.
func (t *tenants) setup() error {
	tr := t.trace.WithDefaults()
	if err := tr.Validate(); err != nil {
		return err
	}
	p := experiments.PaperPreset()
	machine := job.Spec{
		Workload:   job.WorkloadTileIO,
		Procs:      tr.Procs(),
		Seed:       tr.Seed,
		Backend:    tr.Backend,
		BBCapacity: tr.BBCapacity,
		BBDrainBW:  tr.BBDrainBW,
		Workers:    tr.Workers,
		PEsPerNode: tr.PEsPerNode,
		IntraNode:  tr.IntraNode,
	}
	if err := p.ApplySpecBase(machine); err != nil {
		return err
	}
	var plan *fault.Plan
	if tr.Scenario != "" {
		var err error
		if plan, err = fault.Scenario(tr.Scenario); err != nil {
			return err
		}
	}
	p.Fault = plan
	fs, envOf := p.TraceEnv(p.TileScale, plan)
	pol, err := qos.New(tr.Policy)
	if err != nil {
		return err
	}
	fs.SetQoS(pol)
	jobOf := make([]int, 0, tr.Procs())
	members := make([][]int, len(tr.Jobs))
	envs := make([]workload.Env, len(tr.Jobs))
	views := make([]func(rank, procs int) datatype.View, len(tr.Jobs))
	for j, s := range tr.Jobs {
		for i := 0; i < s.Procs; i++ {
			members[j] = append(members[j], len(jobOf))
			jobOf = append(jobOf, j)
		}
		w, _, err := experiments.WorkloadFor(p, s)
		if err != nil {
			return err
		}
		opts := experiments.OptionsFor(s)
		opts.Run.Lat = obs.NewLatencyRecorder()
		envs[j] = envOf(opts)
		switch {
		case w.Tile != nil:
			views[j] = w.Tile.View
		case w.BT != nil:
			views[j] = w.BT.View
		}
	}
	mpi.RunPlanWorkers(tr.Procs(), p.Cluster, p.Seed, plan, p.Workers, func(r *mpi.Rank) {
		j := jobOf[r.WorldRank()]
		s := tr.Jobs[j]
		r.SetJob(j, members[j])
		if s.Arrival > 0 {
			r.P.AdvanceTo(s.Arrival)
		}
		comm := mpi.WorldComm(r)
		env := envs[j]
		f := core.Open(comm, env.FS, "job:"+s.Name, env.Stripe, env.Opts)
		if v := views[j]; v != nil {
			f.SetView(v(comm.Rank(), comm.Size()))
		}
		comm.Barrier()
	})
	return nil
}

func (t *tenants) round(m *meter, traced bool) (outcome, error) {
	out := outcome{virt: map[string]float64{}}
	var rep tenancy.Report
	var reg *obs.Registry
	var err error
	if traced {
		reg = obs.New()
	}
	m.run(func() {
		if traced {
			rep, err = tenancy.RunObserved(experiments.PaperPreset(), t.trace, reg)
		} else {
			rep, err = tenancy.Run(experiments.PaperPreset(), t.trace)
		}
	})
	if err != nil {
		return out, err
	}
	if len(rep.Jobs) != len(t.trace.Jobs) {
		return out, fmt.Errorf("report has %d jobs, want %d", len(rep.Jobs), len(t.trace.Jobs))
	}
	for _, j := range rep.Jobs {
		if !j.Verified {
			return out, fmt.Errorf("job %s: read-back not verified", j.Name)
		}
		if j.Bytes != t.want[j.Name] {
			return out, fmt.Errorf("job %s: %d virtual bytes, geometry gives %d", j.Name, j.Bytes, t.want[j.Name])
		}
		if err := checkQuantiles(j.P50, j.P99, rep.End); err != nil {
			return out, fmt.Errorf("job %s: %w", j.Name, err)
		}
		out.virtBytes += float64(j.Bytes)
		out.calls += j.CollCalls
		// The pooled quantiles of the trace are the worst tenant's: each
		// job's recorder is private to the trace run.
		if j.P50 > out.p50 {
			out.p50 = j.P50
		}
		if j.P99 > out.p99 {
			out.p99 = j.P99
		}
		out.virt[j.Name+".end"], out.virt[j.Name+".p50"], out.virt[j.Name+".p99"] = j.End, j.P50, j.P99
		out.virt[j.Name+".qos"] = j.QoSDelaySecs
	}
	out.virtSecs = rep.End
	out.virt["end"] = rep.End
	if traced {
		l := map[string]float64{}
		for _, j := range rep.Jobs {
			l["qos.delay_virtual_s"] += j.QoSDelaySecs
			l["tenancy."+j.Name+".p99_virtual_s"] = j.P99
			l["tenancy."+j.Name+".bw_MBps"] = j.BW / 1e6
		}
		snap := reg.Snapshot()
		for _, cp := range snap.Counters {
			switch cp.Name {
			case "lustre.ost.requests":
				l["storage.requests"] = float64(cp.Value)
			case "lustre.ost.bytes":
				l["storage.bytes"] = float64(cp.Value)
			case "lustre.ost.switches":
				l["storage.switches"] = float64(cp.Value)
			}
		}
		for _, g := range snap.Gauges {
			if g.Name == "lustre.ost.busy.max_secs" {
				l["storage.busy_max_virtual_s"] = g.Value
			}
		}
		out.layers = l
	}
	return out, nil
}
