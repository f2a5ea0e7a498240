package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/job"
	"repro/internal/sweep"
)

// layerBudget is how long each timed probe of the layer pass repeats
// its calls, so short calls are averaged over many repetitions.
const layerBudget = 500 * time.Millisecond

// maxServiceSource bounds the sources the service probes send (rssd's
// default body limit is 1 MiB).
const maxServiceSource = 256 << 10

// layerPass measures every per-layer metric over the workload's
// reference ops and records it in res.metrics; metrics the traced
// window already measured are kept. Each failure is counted in res.
func layerPass(b bench, c cfg, res *result) error {
	ops := b.refOps()
	if len(ops) == 0 {
		return fmt.Errorf("workload has no reference ops")
	}
	if !hasCluster(ops) {
		split := repro.DefaultParams()
		split.Cores, split.ClusterMode = 2, "split"
		ops = append(ops, &op{name: "cluster/k2-split", prog: ops[0].prog, source: ops[0].source,
			spec: api.RunSpec{Params: split}})
	}
	m := res.metrics
	check := func(err error) {
		res.attempted++
		if err != nil {
			res.failed++
			res.note(err.Error())
		}
	}

	// Simulator layers: replay the reference ops untraced, then traced,
	// and require identical simulated counts.
	var tr tracer
	var sum outcome
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < layerBudget; passes++ {
		for _, o := range ops {
			plain, err := simulate(o, nil)
			check(err)
			traced, terr := simulate(o, &tr)
			check(terr)
			if err != nil || terr != nil {
				continue
			}
			if !plain.equal(traced) {
				check(fmt.Errorf("%s: traced run changed the simulated counts", o.name))
			}
			if passes == 0 {
				sum.Stats.Cycles += plain.Stats.Cycles
				sum.Stats.Retired += plain.Stats.Retired
				sum.Stats.CyclesFrontend += plain.Stats.CyclesFrontend
				sum.Stats.CyclesUnits += plain.Stats.CyclesUnits
				sum.Stats.CyclesDeps += plain.Stats.CyclesDeps
				sum.Reconfigs += plain.Reconfigs
				sum.ReconfigCycles += plain.ReconfigCycles
				sum.Repairs += plain.Repairs
			}
		}
	}
	m["cpu.cycles"] = float64(sum.Stats.Cycles)
	m["cpu.retired"] = float64(sum.Stats.Retired)
	m["cpu.cycles_frontend"] = float64(sum.Stats.CyclesFrontend)
	m["cpu.cycles_units"] = float64(sum.Stats.CyclesUnits)
	m["cpu.cycles_deps"] = float64(sum.Stats.CyclesDeps)
	m["core.reconfigurations"] = float64(sum.Reconfigs)
	m["rfu.reconfig_cycles"] = float64(sum.ReconfigCycles)
	m["rfu.repairs"] = float64(sum.Repairs)

	m["cpu.ns_per_cycle"] = ratio(tr.runNs, tr.runCycles)
	m["cpu.run_allocs_per_kcycle"] = 1000 * ratio(tr.runAllocs, tr.runCycles)
	m["cpu.build_us"] = ratio(tr.buildNs, tr.builds) / 1e3
	m["cpu.build_alloc_kb"] = ratio(tr.buildAlloc, tr.builds) / 1024
	m["cpu.report_us"] = ratio(tr.reportNs, tr.reports) / 1e3
	m["core.manage_ns"] = ratio(tr.steerNs, tr.steerTimed)
	m["core.manage_share"] = m["core.manage_ns"] * float64(tr.steerCalls) / float64(max(tr.steerRunNs, 1))
	m["core.steer_cache_hit_ratio"] = ratio(int64(tr.cacheHits), int64(tr.cacheHits+tr.cacheMisses))
	m["predict.manage_ns"] = ratio(tr.predNs, tr.predTimed)
	m["predict.confirmed_ratio"] = ratio(int64(tr.pfConfirmed), int64(tr.pfIssued))
	m["predict.wasted_spans"] = float64(tr.pfWasted) / float64(passes)
	m["cluster.ns_per_core_cycle"] = ratio(tr.clusterNs, tr.clusterCoreCycles)

	scalar := make([]*op, 0, len(ops))
	for _, o := range ops {
		if o.spec.Params.Cores <= 1 {
			scalar = append(scalar, o)
		}
	}

	// Assembler and analytic model.
	m["isa.assemble_us"] = timeEach(scalar, func(o *op) error {
		u, err := repro.AssembleUnit(o.text())
		if err == nil && len(u.Program) != len(o.prog) {
			err = fmt.Errorf("%s: assembled %d instructions, want %d", o.name, len(u.Program), len(o.prog))
		}
		return err
	}, check) / 1e3
	m["queue.estimate_us"] = timeEach(scalar, func(o *op) error {
		_, err := repro.EstimateIPC(o.prog, o.options())
		return err
	}, check) / 1e3

	// The same ops as an in-process sweep: the ceiling for job points.
	m["sweep.points_per_s"] = sweepRate(scalar, check)

	// The durable job store.
	us, err := storeAppendUs(filepath.Join(c.dir, "store-probe"))
	if err != nil {
		return err
	}
	m["job.store_append_us"] = us

	// The service layers. Workloads whose window did not cross a layer
	// get it measured on a probe rssd with the same ops.
	var small []*op
	for _, o := range scalar {
		if len(o.text()) <= maxServiceSource {
			small = append(small, o)
		}
	}
	probe, err := startService(filepath.Join(c.dir, "probe-jobs"))
	if err != nil {
		return err
	}
	defer func() { check(probe.close()) }()
	if _, ok := m["server.run_rtt_ms"]; !ok {
		probeRuns(probe, small, m, c.exp, check)
	}
	if _, ok := m["job.overhead_ms_per_point"]; !ok {
		probeJob(probe, small, m, c.exp, check)
	}
	m["server.handler_us"] = timeEach(small, func(o *op) error {
		return serveRun(probe, o, c.exp)
	}, check) / 1e3
	return nil
}

func hasCluster(ops []*op) bool {
	for _, o := range ops {
		if o.spec.Params.Cores > 1 {
			return true
		}
	}
	return false
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// timeEach calls fn on each op, over and over for layerBudget, and
// returns the mean nanoseconds per call. Every call's error goes to
// check.
func timeEach(ops []*op, fn func(*op) error, check func(error)) float64 {
	if len(ops) == 0 {
		return 0
	}
	var ns, calls int64
	for start := time.Now(); calls == 0 || time.Since(start) < layerBudget; {
		for _, o := range ops {
			t := time.Now()
			err := fn(o)
			ns += time.Since(t).Nanoseconds()
			calls++
			check(err)
		}
	}
	return float64(ns) / float64(calls)
}

// sweepRate runs the ops as sweep points through sweep.RunContext, one
// machine build, run and report per point, and returns points per
// second.
func sweepRate(ops []*op, check func(error)) float64 {
	var points int
	start := time.Now()
	for points == 0 || time.Since(start) < layerBudget {
		errs, err := sweep.RunContext(context.Background(), len(ops), runtime.GOMAXPROCS(0),
			func(ctx context.Context, i int) error {
				m := repro.NewMachine(ops[i].prog, ops[i].options())
				if _, err := m.RunContext(ctx, maxCycles); err != nil {
					return err
				}
				_, err := m.ReportJSON()
				return err
			})
		check(err)
		for _, err := range errs {
			check(err)
		}
		points += len(ops)
	}
	return float64(points) / time.Since(start).Seconds()
}

// storeAppendUs times Store.AppendPoint (one fsync per record) on a
// fresh store.
func storeAppendUs(dir string) (float64, error) {
	st, err := job.Open(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	j, err := st.Create(job.Spec{Kind: "job", Program: api.Program{Source: "halt\n"}, Points: []api.RunSpec{{}}})
	if err != nil {
		return 0, err
	}
	m := repro.NewMachine(repro.MustAssemble("halt\n"), repro.Options{})
	if _, err := m.Run(maxCycles); err != nil {
		return 0, err
	}
	report, err := m.ReportJSON()
	if err != nil {
		return 0, err
	}
	res := &api.PointResult{Policy: "steering", Report: report, ElapsedMs: 1}
	var ns, n int64
	for start := time.Now(); n == 0 || time.Since(start) < layerBudget; n++ {
		t := time.Now()
		if err := st.AppendPoint(j, res); err != nil {
			return 0, err
		}
		ns += time.Since(t).Nanoseconds()
	}
	return float64(ns) / float64(n) / 1e3, nil
}

// serveRun sends one /v1/run straight into rssd's handler, with no
// network, and checks the answer.
func serveRun(svc *service, o *op, exp *expectations) error {
	body, err := json.Marshal(api.RunRequest{Source: o.text(), RunSpec: o.spec})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	svc.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: /v1/run answered %d: %s", o.name, rec.Code, rec.Body.String())
	}
	var resp api.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	want, err := exp.service(o.text(), o.spec)
	if err != nil {
		return err
	}
	return checkReport(resp.Report, want)
}

// probeRuns sends each op to the probe rssd over loopback and records
// the round-trip split.
func probeRuns(svc *service, ops []*op, m map[string]float64, exp *expectations, check func(error)) {
	var split runSplit
	for start := time.Now(); len(split.rtts) == 0 || time.Since(start) < layerBudget; {
		for _, o := range ops {
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			t := time.Now()
			resp, err := svc.client.Run(ctx, api.RunRequest{Source: o.text(), RunSpec: o.spec})
			rtt := time.Since(t)
			cancel()
			if err == nil {
				var want outcome
				if want, err = exp.service(o.text(), o.spec); err == nil {
					err = checkReport(resp.Report, want)
				}
			} else if rejected(err) {
				split.rejected++
			}
			check(err)
			if err == nil {
				split.add(rtt, resp.ElapsedMs, resp.Cached)
			}
		}
	}
	split.record(m)
}

// probeJob submits the ops, grouped by source, as jobs to the probe
// rssd and records the fabric's cost per point.
func probeJob(svc *service, ops []*op, m map[string]float64, exp *expectations, check func(error)) {
	bySource := map[string][]api.RunSpec{}
	var order []string
	for _, o := range ops {
		if _, ok := bySource[o.text()]; !ok {
			order = append(order, o.text())
		}
		bySource[o.text()] = append(bySource[o.text()], o.spec)
	}
	cost := jobCost{slots: svc.slots()}
	for _, src := range order {
		s := svc.runJob(api.JobRequest{Source: src, Points: bySource[src]})
		check(s.err)
		if s.err == nil {
			cost.add(s)
			s.check(exp, check)
		}
	}
	cost.record(m)
}
