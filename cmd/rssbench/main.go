// Command rssbench orchestrates a policy × reconfiguration-latency ×
// seed sweep over an rssd cluster and renders the result as an
// EXPERIMENTS-ready markdown IPC table. It is the jobs-API showcase:
// the grid goes up as one durable job (POST /v1/jobs), progress is
// followed live over the events stream, and per-point failures land in
// the table as holes instead of aborting the run.
//
// Usage:
//
//	rssbench -addr http://127.0.0.1:8080
//	rssbench -policies steering,demand,oracle -latencies 4,8,16 -seeds 7,8
//	rssbench -program prog.s -max-cycles 2000000 -o table.md
//
// Without -program it synthesizes the paper's phase-alternating
// workload (deterministic for a given -synth-seed), so a bare rssbench
// against a fresh rssd produces a meaningful table.
//
// The grid is laid out policy-major, then latency, then seed; a point's
// index maps back to its table cell through the same order. Every point
// is an independent scalar simulation, so the server is free to run
// them in any order and on any worker.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "rssd base URL")
		program   = flag.String("program", "", "assembly source file (empty: synthesize a phased workload)")
		synthLen  = flag.Int("synth-len", 4000, "synthetic workload length in instructions")
		synthPer  = flag.Int("synth-period", 500, "synthetic workload phase period")
		synthSeed = flag.Int64("synth-seed", 7, "synthetic workload generator seed")
		policies  = flag.String("policies", "steering,demand,prefetch,full-reconfig,ffu-only", "comma-separated policy names")
		latencies = flag.String("latencies", "4,8,16", "comma-separated reconfiguration latencies (cycles)")
		seeds     = flag.String("seeds", "7", "comma-separated simulation seeds (averaged per cell)")
		maxCycles = flag.Int("max-cycles", 0, "cycle budget per point (0: server default)")
		pointTO   = flag.Duration("point-timeout", 30*time.Second, "per-point simulation deadline")
		timeout   = flag.Duration("timeout", 10*time.Minute, "overall deadline for the sweep")
		label     = flag.String("label", "rssbench", "job label")
		outPath   = flag.String("o", "-", "markdown output path ('-' for stdout)")
		jsonlPath = flag.String("jsonl", "", "also dump raw per-point results as JSONL here")
		quiet     = flag.Bool("q", false, "suppress per-point progress on stderr")
		pruneF    = flag.Float64("prune-frontier", 0, "rank the grid with the analytic queueing model first and submit only the top fraction F in (0,1]; 0 submits everything")
		coresCSV  = flag.String("cores", "1", "comma-separated cluster core counts (grid dimension; 1 = scalar)")
		cmodesCSV = flag.String("cluster-modes", "merged", "comma-separated cluster modes for multi-core points (merged,split)")
		carb      = flag.String("cluster-arbiter", "", "cluster arbiter for multi-core points (round-robin, demand-weighted)")
	)
	flag.Parse()
	if *pruneF < 0 || *pruneF > 1 {
		fmt.Fprintf(os.Stderr, "rssbench: -prune-frontier must be in [0,1], got %g\n", *pruneF)
		os.Exit(1)
	}
	dims := clusterDims{coresCSV: *coresCSV, modesCSV: *cmodesCSV, arbiter: *carb}
	if err := run(*addr, *program, *synthLen, *synthPer, *synthSeed, *policies, *latencies,
		*seeds, *maxCycles, *pointTO, *timeout, *label, *outPath, *jsonlPath, *quiet, *pruneF, dims); err != nil {
		fmt.Fprintln(os.Stderr, "rssbench:", err)
		os.Exit(1)
	}
}

// clusterDims carries the optional cluster dimensions of the grid: the
// core counts to sweep and, for multi-core points, the fabric-sharing
// mode(s) and arbiter. Scalar points (cores = 1) ignore mode and
// arbiter so a mixed grid never duplicates identical K=1 cells.
type clusterDims struct {
	coresCSV string
	modesCSV string
	arbiter  string
}

// expand parses and validates the cluster dimensions. For cores == 1 the
// mode list collapses to the single empty mode.
func (d clusterDims) expand() (cores []int, modes []string, err error) {
	cores, err = splitInts(d.coresCSV)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing -cores: %w", err)
	}
	for _, c := range cores {
		if c < 1 || c > cluster.MaxCores {
			return nil, nil, fmt.Errorf("-cores value %d outside [1,%d]", c, cluster.MaxCores)
		}
	}
	modes, err = splitNames(d.modesCSV)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing -cluster-modes: %w", err)
	}
	for _, m := range modes {
		if _, err := cluster.ParseMode(m); err != nil {
			return nil, nil, err
		}
	}
	if _, err := cluster.ParseArbiter(d.arbiter); err != nil {
		return nil, nil, err
	}
	return cores, modes, nil
}

// gridPoint remembers which cell of the table a job point belongs to.
type gridPoint struct {
	policy  string
	latency int
	seed    int64
	cores   int
	mode    string // cluster mode; empty for scalar points
}

// row is the table row label: the policy, qualified by the cluster
// shape when the grid sweeps more than the scalar machine.
func (g gridPoint) row(scalarOnly bool) string {
	if scalarOnly {
		return g.policy
	}
	if g.cores == 1 {
		return g.policy + " (K=1)"
	}
	return fmt.Sprintf("%s (K=%d, %s)", g.policy, g.cores, g.mode)
}

func run(addr, program string, synthLen, synthPer int, synthSeed int64,
	policyCSV, latencyCSV, seedCSV string, maxCycles int,
	pointTO, timeout time.Duration, label, outPath, jsonlPath string, quiet bool, pruneF float64,
	dims clusterDims) error {

	policyNames, err := splitNames(policyCSV)
	if err != nil {
		return err
	}
	lats, err := splitInts(latencyCSV)
	if err != nil {
		return fmt.Errorf("parsing -latencies: %w", err)
	}
	seeds, err := splitInts(seedCSV)
	if err != nil {
		return fmt.Errorf("parsing -seeds: %w", err)
	}
	coreCounts, cmodes, err := dims.expand()
	if err != nil {
		return err
	}
	scalarOnly := len(coreCounts) == 1 && coreCounts[0] == 1
	if pruneF > 0 && !scalarOnly {
		return fmt.Errorf("-prune-frontier only ranks scalar grids; drop it or set -cores 1")
	}

	// Resolve the program: a source file, or the synthesized
	// phase-alternating workload encoded to binary words.
	req := api.JobRequest{Label: label, PointTimeoutMs: int(pointTO / time.Millisecond)}
	// localProg is the decoded instruction stream, kept for the analytic
	// pruning pass — the same stream the server will simulate.
	var localProg repro.Program
	switch {
	case program != "":
		src, err := os.ReadFile(program)
		if err != nil {
			return err
		}
		req.Source = string(src)
		if pruneF > 0 {
			unit, err := repro.AssembleUnit(string(src))
			if err != nil {
				return err
			}
			localProg = unit.Program
		}
	default:
		prog := repro.Synthesize(repro.AlternatingPhases(synthLen, synthPer), synthSeed)
		words, err := repro.EncodeProgram(prog)
		if err != nil {
			return fmt.Errorf("encoding synthetic workload: %w", err)
		}
		req.Words = words
		localProg = prog
	}

	// Build the grid in deterministic order: policy-major, then latency,
	// then seed — the point index maps back through the same order.
	var grid []gridPoint
	for _, pname := range policyNames {
		p, err := repro.ParsePolicy(pname)
		if err != nil {
			return err
		}
		for _, nc := range coreCounts {
			// A scalar point has no fabric-sharing mode; collapsing the
			// mode list keeps K=1 from appearing once per mode.
			pointModes := cmodes
			if nc == 1 {
				pointModes = []string{""}
			}
			for _, cmode := range pointModes {
				for _, lat := range lats {
					for _, seed := range seeds {
						grid = append(grid, gridPoint{policy: pname, latency: lat, seed: int64(seed), cores: nc, mode: cmode})
						params := repro.Params{ReconfigLatency: lat}
						if nc > 1 {
							params.Cores = nc
							params.ClusterMode = cmode
							params.ClusterArbiter = dims.arbiter
						}
						req.Points = append(req.Points, api.RunSpec{
							Policy:    p,
							Params:    params,
							MaxCycles: maxCycles,
							Seed:      int64(seed),
						})
					}
				}
			}
		}
	}

	// Model-guided pruning: rank every grid point with the analytic
	// queueing model (microseconds per point, no server involved) and
	// submit only the top frontier as the durable job. Dropped cells show
	// up as holes in the table — pruning is loud, never silent.
	fullN := len(grid)
	var predicted map[int]float64
	if pruneF > 0 {
		var err error
		if grid, req.Points, predicted, err = pruneGrid(localProg, grid, req.Points, pruneF); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rssbench: model-pruned grid %d -> %d points (frontier %.2f)\n",
			fullN, len(grid), pruneF)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c := client.New(addr)
	created, err := c.SubmitJob(ctx, req)
	if err != nil {
		return fmt.Errorf("submitting job: %w", err)
	}
	fmt.Fprintf(os.Stderr, "rssbench: job %s submitted (%d points)\n", created.ID, created.Total)

	done := 0
	status, err := c.WaitJob(ctx, created.ID, func(ev api.JobEvent) {
		if ev.Type != api.EventPoint || ev.Point == nil {
			return
		}
		done++
		if quiet {
			return
		}
		g := grid[ev.Point.Index]
		outcome := "ok"
		if ev.Point.Error != nil {
			outcome = ev.Point.Error.Code
		}
		shape := ""
		if g.cores > 1 {
			shape = fmt.Sprintf(" K=%d/%s", g.cores, g.mode)
		}
		fmt.Fprintf(os.Stderr, "rssbench: [%d/%d] %s%s lat=%d seed=%d on %s: %s\n",
			done, created.Total, g.policy, shape, g.latency, g.seed, ev.Point.Worker, outcome)
	})
	if err != nil {
		return fmt.Errorf("waiting for job %s: %w", created.ID, err)
	}
	if status.State != api.JobDone {
		return fmt.Errorf("job %s ended %s with %d/%d points", created.ID, status.State, status.Done, status.Total)
	}

	if jsonlPath != "" {
		if err := dumpJSONL(jsonlPath, status.Points); err != nil {
			return err
		}
	}
	table, failed := renderTable(grid, status.Points, scalarOnly, lats, len(seeds))
	if pruneF > 0 {
		agreement := rankAgreement(grid, status.Points, predicted)
		table += fmt.Sprintf("\nModel-pruned frontier %.2f: %d of %d grid points simulated; %s\n",
			pruneF, len(grid), fullN, agreement)
		fmt.Fprintf(os.Stderr, "rssbench: %s\n", agreement)
	}
	if err := writeOut(outPath, table); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d points failed (holes in the table)", failed, len(grid))
	}
	return nil
}

// pruneGrid ranks the whole grid with the analytic queueing model and
// keeps the top fraction f, preserving the original (seed-innermost)
// point order so the table renders in grid order. It returns the kept grid, the matching specs, and the model's predicted
// IPC keyed by the new point index.
func pruneGrid(prog repro.Program, grid []gridPoint, specs []api.RunSpec, f float64) ([]gridPoint, []api.RunSpec, map[int]float64, error) {
	type ranked struct {
		idx int
		ipc float64
	}
	ranks := make([]ranked, len(specs))
	for i, spec := range specs {
		est, err := repro.EstimateIPC(prog, spec.Options())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("estimating point %d (%s lat=%d): %w",
				i, grid[i].policy, grid[i].latency, err)
		}
		ranks[i] = ranked{idx: i, ipc: est.PredictedIPC}
	}
	byIPC := append([]ranked(nil), ranks...)
	sort.SliceStable(byIPC, func(i, j int) bool { return byIPC[i].ipc > byIPC[j].ipc })
	k := int(math.Ceil(f * float64(len(byIPC))))
	if k < 1 {
		k = 1
	}
	keep := map[int]bool{}
	for _, r := range byIPC[:k] {
		keep[r.idx] = true
	}
	var (
		newGrid  []gridPoint
		newSpecs []api.RunSpec
		pred     = map[int]float64{}
	)
	for i := range specs {
		if !keep[i] {
			continue
		}
		pred[len(newGrid)] = ranks[i].ipc
		newGrid = append(newGrid, grid[i])
		newSpecs = append(newSpecs, specs[i])
	}
	return newGrid, newSpecs, pred, nil
}

// rankAgreement compares the model's pre-submission ranking with the
// simulated outcome over the points that actually ran: the fraction of
// point pairs both orderings agree on (Kendall-style concordance).
func rankAgreement(grid []gridPoint, points []api.PointResult, predicted map[int]float64) string {
	measured := map[int]float64{}
	for _, res := range points {
		if res.Index < 0 || res.Index >= len(grid) || res.Error != nil {
			continue
		}
		if ipc, ok := reportIPC(res.Report); ok {
			measured[res.Index] = ipc
		}
	}
	idxs := make([]int, 0, len(measured))
	for i := range measured {
		if _, ok := predicted[i]; ok {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	concordant, pairs := 0, 0
	for a := 0; a < len(idxs); a++ {
		for b := a + 1; b < len(idxs); b++ {
			i, j := idxs[a], idxs[b]
			dp, dm := predicted[i]-predicted[j], measured[i]-measured[j]
			if dp == 0 || dm == 0 {
				continue // ties carry no ordering information
			}
			pairs++
			if (dp > 0) == (dm > 0) {
				concordant++
			}
		}
	}
	if pairs == 0 {
		return "rank agreement: not enough completed points to compare"
	}
	return fmt.Sprintf("predicted-vs-simulated rank agreement: %d/%d concordant pairs (%.0f%%) over %d points",
		concordant, pairs, 100*float64(concordant)/float64(pairs), len(idxs))
}

// reportIPC extracts the IPC of one point report: the scalar report's
// "ipc" field, or for cluster reports the cluster block's aggregate
// IPC (the sum over cores — the throughput number a K-way cell should
// show).
func reportIPC(raw json.RawMessage) (float64, bool) {
	var rep struct {
		IPC     float64 `json:"ipc"`
		Cluster *struct {
			AggregateIPC float64 `json:"aggregateIPC"`
		} `json:"cluster"`
	}
	if json.Unmarshal(raw, &rep) != nil {
		return 0, false
	}
	if rep.Cluster != nil {
		return rep.Cluster.AggregateIPC, true
	}
	return rep.IPC, true
}

// renderTable aggregates per-point IPC into a row × latency markdown
// table (cells average over seeds) and returns it with the failed-point
// count. Rows are policies, qualified by cluster shape when the grid
// sweeps core counts; cluster cells show aggregate (summed) IPC.
func renderTable(grid []gridPoint, points []api.PointResult, scalarOnly bool, lats []int, seedCount int) (string, int) {
	type cell struct {
		sum float64
		n   int
	}
	var rows []string
	cells := map[string]map[int]*cell{}
	for _, g := range grid {
		r := g.row(scalarOnly)
		if cells[r] == nil {
			rows = append(rows, r)
			cells[r] = map[int]*cell{}
			for _, l := range lats {
				cells[r][l] = &cell{}
			}
		}
	}
	failed := 0
	for _, res := range points {
		if res.Index < 0 || res.Index >= len(grid) {
			continue
		}
		if res.Error != nil {
			failed++
			continue
		}
		ipc, ok := reportIPC(res.Report)
		if !ok {
			failed++
			continue
		}
		g := grid[res.Index]
		c := cells[g.row(scalarOnly)][g.latency]
		c.sum += ipc
		c.n++
	}

	var b strings.Builder
	fmt.Fprintf(&b, "| policy | %s |\n", joinHeader(lats))
	fmt.Fprintf(&b, "|---|%s\n", strings.Repeat("---|", len(lats)))
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s |", r)
		for _, l := range lats {
			c := cells[r][l]
			if c.n == 0 {
				b.WriteString(" — |")
				continue
			}
			fmt.Fprintf(&b, " %.3f |", c.sum/float64(c.n))
		}
		b.WriteByte('\n')
	}
	if seedCount > 1 {
		fmt.Fprintf(&b, "\nIPC, mean of %d seeds per cell.\n", seedCount)
	}
	if !scalarOnly {
		b.WriteString("\nMulti-core cells report aggregate (summed) IPC.\n")
	}
	return b.String(), failed
}

func joinHeader(lats []int) string {
	parts := make([]string, len(lats))
	for i, l := range lats {
		parts[i] = fmt.Sprintf("IPC @ lat=%d", l)
	}
	return strings.Join(parts, " | ")
}

func dumpJSONL(path string, points []api.PointResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sorted := append([]api.PointResult(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	enc := json.NewEncoder(f)
	for _, p := range sorted {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}

func writeOut(path, table string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err := io.WriteString(w, table)
	return err
}

func splitNames(csv string) ([]string, error) {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s != "" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty name list %q", csv)
	}
	return out, nil
}

func splitInts(csv string) ([]int, error) {
	names, err := splitNames(csv)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(names))
	for i, s := range names {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
