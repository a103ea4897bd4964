package main

// metricSpec mirrors one entry of BENCHMARK.json (a test keeps the two
// equal). Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// isTiming reports whether the metric is a time or a rate, which
// interference can only worsen (estimator: bestOfEpochs); ratios and
// memory marks err both ways (estimator: medianOfEpochs).
func (m metricSpec) isTiming() bool {
	return m.Unit == "s" || m.Unit == "ms" || m.Unit == "1/s"
}

// endToEnd are the six metrics a user of the system would see; every
// workload reports all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"warm_solve_ms", "ms", "lower", 0.20},
	{"refresh_ms", "ms", "lower", 0.20},
	{"solves_per_s", "1/s", "higher", 0.20},
	{"overhead_ratio", "ratio", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, from the traced pass only.
var perLayer = []metricSpec{
	{Name: "service.request_ms", Unit: "ms", Better: "lower"},
	{Name: "service.request_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.inproc_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_json_ms", Unit: "ms", Better: "lower"},
	{Name: "service.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "service.mm_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "service.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.batched_frac", Unit: "ratio", Better: "higher"},
	{Name: "service.shed_count", Unit: "count", Better: "lower"},

	{Name: "core.session_open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage_matrix_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage_rhs_us", Unit: "us", Better: "lower"},
	{Name: "core.first_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.port_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.warm_allocs_per_solve", Unit: "count", Better: "lower"},

	{Name: "cca.assemble_us", Unit: "us", Better: "lower"},
	{Name: "cca.port_call_ns", Unit: "ns", Better: "lower"},

	{Name: "ksp.iterations", Unit: "count", Better: "lower"},
	{Name: "ksp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "ksp.ms_per_iteration", Unit: "ms", Better: "lower"},
	{Name: "ksp.ilu0_build_ms", Unit: "ms", Better: "lower"},

	{Name: "aztec.iterations", Unit: "count", Better: "lower"},
	{Name: "aztec.iterate_ms", Unit: "ms", Better: "lower"},
	{Name: "aztec.ilut_build_ms", Unit: "ms", Better: "lower"},
	{Name: "aztec.ilut_apply_us", Unit: "us", Better: "lower"},
	{Name: "aztec.fillcomplete_ms", Unit: "ms", Better: "lower"},

	{Name: "slu.ordering_ms", Unit: "ms", Better: "lower"},
	{Name: "slu.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "slu.fill_ratio", Unit: "ratio", Better: "lower"},
	{Name: "slu.trisolve_us", Unit: "us", Better: "lower"},
	{Name: "slu.trisolve_levels_w2_us", Unit: "us", Better: "lower"},

	{Name: "mg.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "mg.cycles", Unit: "count", Better: "lower"},

	{Name: "pmat.newmat_ms", Unit: "ms", Better: "lower"},
	{Name: "pmat.apply_us", Unit: "us", Better: "lower"},
	{Name: "pmat.dot_us", Unit: "us", Better: "lower"},
	{Name: "pmat.ghost_frac", Unit: "ratio", Better: "lower"},

	{Name: "sparse.spmv_csr_us", Unit: "us", Better: "lower"},
	{Name: "sparse.spmv_msr_us", Unit: "us", Better: "lower"},
	{Name: "sparse.spmv_auto_us", Unit: "us", Better: "lower"},
	{Name: "sparse.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmv_bytes_computed", Unit: "B", Better: "lower"},
	{Name: "sparse.mm_read_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.coo_to_csr_ms", Unit: "ms", Better: "lower"},

	{Name: "par.run_dispatch_us", Unit: "us", Better: "lower"},
	{Name: "par.dispatches", Unit: "count", Better: "lower"},
	{Name: "par.inline_runs", Unit: "count", Better: "higher"},
	{Name: "par.levels_count", Unit: "count", Better: "lower"},
	{Name: "par.level_median_width", Unit: "count", Better: "higher"},
	{Name: "par.w2_over_w1_spmv_ratio", Unit: "ratio", Better: "lower"},
	{Name: "par.w2_over_w1_trisolve_ratio", Unit: "ratio", Better: "lower"},

	{Name: "comm.barrier_us", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "comm.msgs_per_solve", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "comm.collectives_per_solve", Unit: "count", Better: "lower"},
	{Name: "comm.barrier_wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "comm.p2_over_p1_solve_ratio", Unit: "ratio", Better: "lower"},

	{Name: "mesh.stencil_gen_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.fem_assembly_ms", Unit: "ms", Better: "lower"},

	{Name: "telemetry.phase_port_overhead_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.phase_setup_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.phase_precond_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.phase_iterate_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloadWhy records why each workload exists; BENCHMARK.json carries
// the same text.
var workloadWhy = []struct{ Name, Why string }{
	{"stencil-gmres", "paper sec.8 model PDE at Table 1 row nnz=49,600 (grid 100), petsc GMRES(30)+ILU tol 1e-6, 2 ranks x 1 worker: iterate-dominated, so ksp, pmat.Apply, CSR SpMV and comm do nearly all the work"},
	{"fem-cg", "3-D unstructured FEM (mesh 16, n=3375), trilinos CG+ILUT tol 1e-8, 1 rank x 2 workers: only user of par and aztec, irregular pattern, set-up (assembly+ILUT) far exceeds one solve, no comm traffic"},
	{"direct-refactor", "stencil grid 100 (n=10,000), superlu, 1 rank, 2 refreshes per 200 warm solves per epoch: factorisation dominates set-up and refresh, the warm solve is a 0.7 ms triangular sweep; no Krylov, comm or par"},
	{"service-mixed", "in-process service over HTTP, closed loop, 2 clients x 300 requests/epoch: 70% pooled superlu grid 32, 20% pooled petsc grid 24, 8% nrhs=4, 2% version bumps; admission, pool, JSON and HTTP do the work"},
}
