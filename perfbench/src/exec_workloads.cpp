// The two execution workloads, sor-interior and adi-boundary.  Each is a
// closed loop of cold whole requests from one client thread:
//
//   request := CompiledPlan::compile_parallel          (lowering)
//              verify::snapshot_compiled + verify_plan  (V1-V8 proof)
//              ParallelExecutor::run                    (ranks + write-back)
//
// Both are fixed at the paper geometry; the seed is only recorded (and
// seeds the event-backend replay of the traced run, whose numerics must
// not depend on it).  Every request's data space is compared bitwise,
// through a digest, with run_sequential, which runs once per process
// after the timed loop so its storage never counts towards peak memory.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "apps/kernels.hpp"
#include "common.hpp"
#include "runtime/parallel_executor.hpp"
#include "verify/plan_model.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace ctile;

constexpr int kMinRequests = 3;

struct ExecSpec {
  AppInstance app;
  MatQ h;
  int force_m = -1;
  // Guards: the workload's defining facts.
  i64 points = 0;
  int ranks = 0;
  i64 nonempty_tiles = 0;
  bool interior_majority = false;  ///< > 50% interior points, else exactly 0
};

ExecSpec make_spec(const Options& opt) {
  ExecSpec s;
  if (opt.workload == "sor-interior") {
    // SOR (paper 4.1, skewed), nonrect tiling, mesh fitted to 8x8.
    const i64 m = opt.smoke ? 8 : 64;
    const i64 n = opt.smoke ? 64 : 256;
    s.app = make_sor(m, n);
    s.h = sor_nonrect_h(fit_parts(1, m, 8), fit_parts(2, m + n, 8),
                        opt.smoke ? 8 : 32);
    s.force_m = 2;
    s.points = m * n * n;
    s.ranks = 64;
    s.nonempty_tiles = opt.smoke ? 523 : 529;
    s.interior_majority = true;
  } else {
    // ADI (paper 4.3, arity 2) on the paper's 4x4 mesh: the Fig. 10
    // geometry, where every tile is a boundary tile.
    const i64 t = opt.smoke ? 20 : 100;
    const i64 n = opt.smoke ? 64 : 256;
    const i64 mesh = fit_parts(1, n, 4);
    s.app = make_adi(t, n);
    s.h = adi_nr3_h(opt.smoke ? 4 : 10, mesh, mesh);
    s.force_m = 0;
    s.points = t * n * n;
    s.ranks = 16;
    s.nonempty_tiles = opt.smoke ? 213 : 377;
    s.interior_majority = false;
  }
  return s;
}

struct Geometry {
  i64 points = 0;
  int ranks = 0;
  i64 nonempty_tiles = 0;
  i64 interior_tiles = 0;
  i64 interior_points = 0;
};

Geometry geometry_of(const CompiledPlan& plan) {
  Geometry g;
  const TileCensus& census = plan.census();
  g.points = census.total();
  g.ranks = plan.mapping().num_procs();
  const TileCensus::Bounds& b = census.nonempty_bounds();
  VecI js = b.lo;
  const std::size_t n = js.size();
  while (true) {
    const i64 c = census.count(js);
    if (c > 0) {
      g.nonempty_tiles += 1;
      if (plan.classifier().interior(js)) {
        g.interior_tiles += 1;
        g.interior_points += c;
      }
    }
    std::size_t k = n;
    while (k > 0) {
      --k;
      if (++js[k] <= b.hi[k]) break;
      js[k] = b.lo[k];
      if (k == 0) return g;
    }
    if (n == 0) return g;
  }
}

u64 digest_of(const DataSpace& ds) {
  return digest_doubles(ds.at_offset(0),
                        static_cast<std::size_t>(ds.points() * ds.arity()));
}

/// Visit every prefix (j_0 .. j_{n-2}) of the box [lo, hi] in
/// lexicographic order; `j` has all n entries, the last one free.
template <typename Fn>
void for_each_row(const VecI& lo, const VecI& hi, Fn&& fn) {
  const std::size_t n = lo.size();
  VecI j = lo;
  while (true) {
    fn(j);
    std::size_t k = n - 1;
    while (true) {
      if (k == 0) return;
      --k;
      if (++j[k] <= hi[k]) break;
      j[k] = lo[k];
    }
  }
}

struct RowSeq {
  double seconds = 0.0;
  u64 digest = 0;
};

/// The tight untiled baseline: the nest swept row by row (innermost
/// dimension) in lexicographic order through Kernel::compute_row, over a
/// dense array padded by the dependence reach whose out-of-space points
/// are prefilled from Kernel::initial.  Same order and the same reads as
/// run_sequential, so the result must match it bitwise.
RowSeq run_rowseq(const AppInstance& app) {
  const Polyhedron& space = app.nest.space;
  const MatI& deps = app.nest.deps;
  const Kernel& kernel = *app.kernel;
  const int n = space.dim();
  const int q = deps.cols();
  const int ar = kernel.arity();
  const auto nz = static_cast<std::size_t>(n);
  const std::vector<IntRange> box = space.bounding_box();
  VecI blo(nz), bhi(nz), lo(nz), hi(nz), stride(nz);
  for (int d = 0; d < n; ++d) {
    const auto dz = static_cast<std::size_t>(d);
    i64 back = 0, fwd = 0;
    for (int l = 0; l < q; ++l) {
      back = std::max(back, deps(d, l));
      fwd = std::max(fwd, -deps(d, l));
    }
    blo[dz] = box[dz].lo;
    bhi[dz] = box[dz].hi;
    lo[dz] = blo[dz] - back;
    hi[dz] = bhi[dz] + fwd;
  }
  i64 total = ar;
  for (int d = n - 1; d >= 0; --d) {
    const auto dz = static_cast<std::size_t>(d);
    stride[dz] = total;
    total *= hi[dz] - lo[dz] + 1;
  }
  const auto index = [&](const VecI& j) {
    i64 off = 0;
    for (std::size_t d = 0; d < nz; ++d) off += (j[d] - lo[d]) * stride[d];
    return static_cast<std::size_t>(off);
  };

  RowSeq out;
  const auto t0 = Clock::now();
  std::vector<double> a(static_cast<std::size_t>(total));
  for_each_row(lo, hi, [&](VecI& j) {
    const IntRange r = space.var_range(n - 1, j);
    for (i64 v = lo[nz - 1]; v <= hi[nz - 1]; ++v) {
      if (v >= r.lo && v <= r.hi) continue;
      j[nz - 1] = v;
      kernel.initial(j, &a[index(j)]);
    }
  });
  VecI jstep(nz, 0);
  jstep[nz - 1] = 1;
  std::vector<const double*> dep_base(static_cast<std::size_t>(q));
  VecI pred(nz);
  for_each_row(blo, bhi, [&](VecI& j) {
    const IntRange r = space.var_range(n - 1, j);
    if (r.empty()) return;
    j[nz - 1] = r.lo;
    for (int l = 0; l < q; ++l) {
      for (std::size_t d = 0; d < nz; ++d) {
        pred[d] = j[d] - deps(static_cast<int>(d), l);
      }
      dep_base[static_cast<std::size_t>(l)] = &a[index(pred)];
    }
    kernel.compute_row(j, jstep, r.count(), dep_base.data(), q, ar,
                       &a[index(j)], ar);
  });
  out.seconds = seconds_between(t0, Clock::now());

  // Gather the in-space rows into the DataSpace layout to compare.
  DataSpace ds(space, ar);
  for_each_row(blo, bhi, [&](VecI& j) {
    const IntRange r = space.var_range(n - 1, j);
    if (r.empty()) return;
    j[nz - 1] = r.lo;
    std::memcpy(ds.at(j), &a[index(j)],
                static_cast<std::size_t>(r.count() * ar) * sizeof(double));
  });
  out.digest = digest_of(ds);
  return out;
}

struct RequestRecord {
  double lower_s = 0.0;
  double verify_s = 0.0;
  double run_s = 0.0;
  double total_s = 0.0;
  double cpu_util = 0.0;
  PlanPhaseTimes phases;
  ParallelRunStats stats;
  i64 findings = 0;
  u64 digest = 0;
  // Traced run only: the event-backend replay of the same plan.
  double replay_s = 0.0;
  PhaseTimes replay_phases;
  u64 replay_digest = 0;
};

}  // namespace

Outcome run_exec_workload(const Options& opt, Tracer& tracer) {
  Outcome out;
  const ExecSpec spec = make_spec(opt);
  const Kernel& kernel = *spec.app.kernel;
  LoweringKnobs knobs;
  knobs.force_m = spec.force_m;

  // ---- Guards: print and assert the workload's defining facts.
  const auto guard_plan =
      CompiledPlan::compile_parallel(spec.app.nest, spec.h, knobs);
  const Geometry g = geometry_of(*guard_plan);
  const double interior_frac =
      static_cast<double>(g.interior_points) / static_cast<double>(g.points);
  std::printf(
      "guard: points %lld  ranks %d  non-empty tiles %lld  interior tiles "
      "%lld  interior-point share %.4f\n",
      static_cast<long long>(g.points), g.ranks,
      static_cast<long long>(g.nonempty_tiles),
      static_cast<long long>(g.interior_tiles), interior_frac);
  const bool interior_ok =
      spec.interior_majority ? interior_frac > 0.5 : g.interior_points == 0;
  if (g.points != spec.points || g.ranks != spec.ranks ||
      g.nonempty_tiles != spec.nonempty_tiles || !interior_ok) {
    throw Error("workload guard failed: expected points " +
                std::to_string(spec.points) + ", ranks " +
                std::to_string(spec.ranks) + ", non-empty tiles " +
                std::to_string(spec.nonempty_tiles) + ", interior share " +
                (spec.interior_majority ? "> 0.5" : "== 0"));
  }
  const double points = static_cast<double>(g.points);

  // ---- One whole request; the traced run adds an event-backend replay.
  const auto run_request = [&](i64 id) {
    RequestRecord r;
    tracer.set_request(id);
    Tracer::Scope request_span(&tracer, "request");
    const auto t0 = Clock::now();
    std::shared_ptr<const CompiledPlan> plan;
    {
      Tracer::Scope s(&tracer, "runtime.compile_parallel");
      plan = CompiledPlan::compile_parallel(spec.app.nest, spec.h, knobs);
    }
    const auto t1 = Clock::now();
    std::size_t findings = 0;
    {
      Tracer::Scope s(&tracer, "verify.verify_plan");
      const verify::PlanModel model = verify::snapshot_compiled(*plan);
      findings = verify::verify_plan(model).diagnostics().size();
    }
    r.findings = static_cast<i64>(findings);
    const auto t2 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    std::optional<DataSpace> ds;
    {
      Tracer::Scope s(&tracer, "runtime.ParallelExecutor::run");
      ParallelExecutor ex(plan, kernel);
      ds.emplace(ex.run(&r.stats));
    }
    const auto t3 = Clock::now();
    const double cpu1 = process_cpu_seconds();
    r.lower_s = seconds_between(t0, t1);
    r.verify_s = seconds_between(t1, t2);
    r.run_s = seconds_between(t2, t3);
    r.total_s = seconds_between(t0, t3);
    r.cpu_util = (cpu1 - cpu0) / (r.run_s * hardware_threads());
    r.phases = plan->phase_times();
    {
      Tracer::Scope s(&tracer, "bench.digest");
      r.digest = digest_of(*ds);
    }
    ds.reset();
    if (findings != 0) {
      out.fail("request " + std::to_string(id) + ": verification reported " +
               std::to_string(findings) + " finding(s)");
    }
    if (r.stats.points_computed != g.points) {
      out.fail("request " + std::to_string(id) + ": computed " +
               std::to_string(r.stats.points_computed) + " points");
    }
    if (tracer.on()) {
      Tracer::Scope s(&tracer, "runtime.ParallelExecutor::run[event]");
      ParallelExecutor ex(plan, kernel);
      ex.set_comm_backend(mpisim::Backend::kEvent, opt.seed);
      ParallelRunStats st;
      const auto e0 = Clock::now();
      DataSpace replay = ex.run(&st);
      r.replay_s = seconds_between(e0, Clock::now());
      r.replay_phases = st.phase_total;
      r.replay_digest = digest_of(replay);
    }
    return r;
  };

  // ---- Warm-up (thread creation, page faults), then the timed loop.
  std::vector<RequestRecord> records;
  const auto attempt = [&](i64 id) {
    out.attempted += 1;
    try {
      return std::optional<RequestRecord>(run_request(id));
    } catch (const std::exception& e) {
      out.fail("request " + std::to_string(id) + " threw: " + e.what());
      return std::optional<RequestRecord>();
    }
  };
  std::vector<u64> digests;
  if (auto w = attempt(0)) digests.push_back(w->digest);
  const auto loop_start = Clock::now();
  for (i64 id = 1;; ++id) {
    if (auto r = attempt(id)) {
      std::printf("request %lld: lower %.3f s  verify %.3f s  run %.3f s\n",
                  static_cast<long long>(id), r->lower_s, r->verify_s,
                  r->run_s);
      digests.push_back(r->digest);
      if (tracer.on()) digests.push_back(r->replay_digest);
      records.push_back(std::move(*r));
    }
    if (static_cast<int>(records.size()) >= kMinRequests &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  const double peak_mb = peak_rss_mb();

  // ---- Oracle: run_sequential once, untimed, compared bitwise.
  tracer.set_request(-1);
  u64 oracle = 0;
  double oracle_s = 0.0;
  {
    Tracer::Scope s(&tracer, "apps.run_sequential");
    const auto t0 = Clock::now();
    const DataSpace ref =
        run_sequential(spec.app.nest.space, spec.app.nest.deps, kernel);
    oracle_s = seconds_between(t0, Clock::now());
    oracle = digest_of(ref);
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] != oracle) {
      out.fail("data space " + std::to_string(i) +
               " is not bitwise-equal to run_sequential");
    }
  }
  if (records.empty()) throw Error("no request completed");

  std::vector<double> req_mpts, run_mpts, setup, lower, verify_s, run_s,
      cpu_util;
  PlanPhaseTimes phases;
  for (const RequestRecord& r : records) {
    req_mpts.push_back(points / r.total_s * 1e-6);
    run_mpts.push_back(points / r.run_s * 1e-6);
    setup.push_back(r.lower_s + r.verify_s);
    lower.push_back(r.lower_s);
    verify_s.push_back(r.verify_s);
    run_s.push_back(r.run_s);
    cpu_util.push_back(r.cpu_util);
    phases.accumulate(r.phases);
  }
  out.e2e["request_mpts"] = median(req_mpts);
  out.e2e["setup_s"] = median(setup);
  out.e2e["peak_rss_mb"] = peak_mb;
  out.headline["request_mpts"] = out.e2e["request_mpts"];

  std::printf("%zu timed requests (+1 warm-up), %.1f s loop\n", records.size(),
              seconds_between(loop_start, Clock::now()));
  std::printf("workload metrics:\n");
  print_metric("request_mpts", out.e2e["request_mpts"], "Mpts/s",
               "lower + verify + run + write-back, median");
  print_metric("run_mpts", median(run_mpts), "Mpts/s",
               "ParallelExecutor::run only, median");
  print_metric("setup_s", out.e2e["setup_s"], "s",
               "compile_parallel + V1-V8, median");
  print_metric("peak_rss_mb", peak_mb, "MB");

  if (tracer.on()) {
    const double k = static_cast<double>(records.size());
    record_lowering_phases(out, phases, k);
    out.layers["runtime.lower_s"] = mean(lower);
    out.layers["runtime.run_s"] = median(run_s);
    out.layers["runtime.cpu_util"] = median(cpu_util);
    std::vector<double> compute, pack, unpack, other;
    for (const RequestRecord& r : records) {
      const PhaseTimes& p = r.replay_phases;
      compute.push_back(p.compute_s);
      pack.push_back(p.pack_s);
      unpack.push_back(p.unpack_s);
      other.push_back(r.replay_s - p.compute_s - p.pack_s - p.unpack_s);
    }
    out.layers["runtime.compute_s"] = median(compute);
    out.layers["runtime.pack_s"] = median(pack);
    out.layers["runtime.unpack_s"] = median(unpack);
    out.layers["runtime.other_s"] = median(other);
    out.layers["runtime.interior_pts_frac"] = interior_frac;
    out.layers["verify.s"] = mean(verify_s);
    double findings = 0.0;
    for (const RequestRecord& r : records) {
      findings += static_cast<double>(r.findings);
    }
    out.layers["verify.findings"] = findings;
    const ParallelRunStats& st = records.front().stats;
    out.layers["mpisim.messages"] = static_cast<double>(st.messages);
    out.layers["mpisim.doubles"] = static_cast<double>(st.doubles);
    out.layers["mpisim.bytes_per_point"] =
        8.0 * static_cast<double>(st.doubles) / points;
    out.layers["apps.oracle_mpts"] = points / oracle_s * 1e-6;

    out.attempted += 1;
    RowSeq rs;
    {
      Tracer::Scope s(&tracer, "apps.rowseq");
      rs = run_rowseq(spec.app);
    }
    if (rs.digest != oracle) {
      out.fail("row-sequential baseline is not bitwise-equal to "
               "run_sequential");
    }
    out.layers["apps.rowseq_mpts"] = points / rs.seconds * 1e-6;
    out.layers["runtime.speedup_vs_rowseq"] =
        median(run_mpts) / out.layers["apps.rowseq_mpts"];
  }
  return out;
}

}  // namespace perfbench
