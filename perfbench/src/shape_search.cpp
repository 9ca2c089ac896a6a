// The shape-search workload: a seeded list of cold autotune_tile_shape
// searches over SOR, Jacobi and ADI, cycling through the three apps with
// sizes jittered around the micro_shape_search spaces.  Each search gets
// a fresh PlanCache and ScoreMemo, the event-DES scorer, the default
// number of search threads, and the app's rectangular family as extras.
// The request ends when the winner is lowered and proven (V1-V8), which
// is what serving a searched plan takes.
#include <algorithm>
#include <cstdio>

#include "apps/kernels.hpp"
#include "cluster/shape_search.hpp"
#include "common.hpp"
#include "runtime/plan_cache.hpp"
#include "support/rng.hpp"
#include "verify/plan_model.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace ctile;

struct SearchCase {
  std::string label;
  AppInstance app;
  ShapeSearchRequest req;
  i64 points = 0;
  bool expect_nr3 = false;  ///< ADI must rediscover chain row (1,-1,-1)
};

/// Search `index` of the cycle sor, jacobi, adi; sizes jittered by
/// up to 1/16 around the base space.
SearchCase make_case(int index, Rng& rng, bool smoke) {
  const auto jitter = [&](i64 base) {
    const i64 span = base / 16;
    return base + rng.uniform(-span, span);
  };
  SearchCase c;
  char buf[96];
  switch (index % 3) {
    case 0: {
      const i64 m = jitter(smoke ? 12 : 32), n = jitter(smoke ? 24 : 64);
      c.app = make_sor(m, n);
      c.req.force_m = 2;
      c.req.arity = 1;
      c.req.chain_factors = {4, 8, 16};
      c.req.orig_hi = {m, n, n};
      c.req.skew = sor_skew_matrix();
      for (i64 z : c.req.chain_factors) {
        c.req.extra.push_back(
            sor_rect_h(ceil_div(m, 4), ceil_div(m + n, 4), z));
      }
      c.points = m * n * n;
      std::snprintf(buf, sizeof buf, "sor M=%lld N=%lld",
                    static_cast<long long>(m), static_cast<long long>(n));
      break;
    }
    case 1: {
      const i64 t = jitter(smoke ? 8 : 16), ij = jitter(smoke ? 16 : 48);
      c.app = make_jacobi(t, ij, ij);
      c.req.force_m = 0;
      c.req.arity = 1;
      c.req.chain_factors = {2, 4, 8};
      c.req.orig_hi = {t, ij, ij};
      c.req.skew = jacobi_skew_matrix();
      for (i64 z : c.req.chain_factors) {
        c.req.extra.push_back(jacobi_rect_h(z, ceil_div(t + ij, 4),
                                            ceil_div(t + ij, 4)));
      }
      c.points = t * ij * ij;
      std::snprintf(buf, sizeof buf, "jacobi T=%lld I=J=%lld",
                    static_cast<long long>(t), static_cast<long long>(ij));
      break;
    }
    default: {
      const i64 t = jitter(smoke ? 16 : 32), n = jitter(smoke ? 24 : 48);
      c.app = make_adi(t, n);
      c.req.force_m = 0;
      c.req.arity = 2;
      c.req.chain_factors = {2, 4, 8};
      c.req.orig_hi = {t, n, n};
      c.req.skew = MatI::identity(3);
      for (i64 z : c.req.chain_factors) {
        c.req.extra.push_back(
            adi_rect_h(z, ceil_div(n, 4), ceil_div(n, 4)));
      }
      c.points = t * n * n;
      c.expect_nr3 = true;
      std::snprintf(buf, sizeof buf, "adi T=%lld N=%lld",
                    static_cast<long long>(t), static_cast<long long>(n));
      break;
    }
  }
  c.label = buf;
  c.req.orig_lo = {1, 1, 1};
  c.req.mesh_extent = 4;  // the paper's 4x4 mesh, fitted per candidate
  c.req.scorer = ShapeScorer::kEventDes;
  return c;
}

/// The knobs autotune_tile_shape lowers every candidate with.
LoweringKnobs search_knobs(const ShapeSearchRequest& req,
                           const MachineModel& machine) {
  LoweringKnobs knobs;
  knobs.force_m = req.force_m;
  knobs.census_from_box = true;
  knobs.orig_lo = req.orig_lo;
  knobs.orig_hi = req.orig_hi;
  knobs.skew = req.skew;
  MachineKeyFields f;
  f.sec_per_iter = machine.sec_per_iter;
  f.latency = machine.latency;
  f.bandwidth = machine.bandwidth;
  f.per_byte_overhead = machine.per_byte_overhead;
  f.per_message_overhead = machine.per_message_overhead;
  f.bytes_per_value = machine.bytes_per_value;
  knobs.machine = f;
  return knobs;
}

struct SearchRecord {
  double search_s = 0.0;
  double setup_s = 0.0;  ///< winner lowering + V1-V8
  double verify_s = 0.0;
  double best_makespan_s = 0.0;
  i64 points = 0;
  ShapeSearchResult result;
  PlanCache::Stats cache;
  // Traced run only: the scorers re-timed on the evaluated plans.
  double des_s = 0.0;
  double analytic_s = 0.0;
  i64 rescored = 0;
  i64 findings = 0;
};

std::string dir_str(const VecI& d) {
  std::string s = "(";
  for (std::size_t i = 0; i < d.size(); ++i) {
    s += (i > 0 ? "," : "") + std::to_string(d[i]);
  }
  return s + ")";
}

}  // namespace

Outcome run_shape_search(const Options& opt, Tracer& tracer) {
  Outcome out;
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 23);
  const MachineModel machine = MachineModel::fast_ethernet_cluster();

  i64 next_id = 0;
  const auto search = [&](const SearchCase& c) {
    SearchRecord r;
    r.points = c.points;
    tracer.set_request(next_id++);
    Tracer::Scope request_span(&tracer, "request");
    PlanCache cache;
    ScoreMemo memo;
    ShapeSearchRequest req = c.req;
    req.cache = &cache;
    req.memo = &memo;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(&tracer, "cluster.autotune_tile_shape");
      r.result = autotune_tile_shape(c.app.nest, req, machine);
    }
    const auto t1 = Clock::now();
    const ShapeScore& best = r.result.best();
    const LoweringKnobs knobs = search_knobs(req, machine);
    std::shared_ptr<const CompiledPlan> plan;
    {
      Tracer::Scope s(&tracer, "runtime.compile_parallel");
      plan = CompiledPlan::compile_parallel(c.app.nest, best.h, knobs);
    }
    const auto t2 = Clock::now();
    {
      Tracer::Scope s(&tracer, "verify.verify_plan");
      const verify::PlanModel model = verify::snapshot_compiled(*plan);
      r.findings =
          static_cast<i64>(verify::verify_plan(model).diagnostics().size());
    }
    const auto t3 = Clock::now();
    r.search_s = seconds_between(t0, t1);
    r.setup_s = seconds_between(t1, t3);
    r.verify_s = seconds_between(t2, t3);
    r.best_makespan_s = best.score_s;
    r.cache = cache.stats();

    // Invariants of a served winner.
    if (r.findings != 0) {
      throw Error("winner verification reported " +
                  std::to_string(r.findings) + " finding(s)");
    }
    if (best.bound.bytes_lb > best.analytic.bytes) {
      throw Error("winner bytes_lb " +
                  std::to_string(best.bound.bytes_lb) + " > measured " +
                  std::to_string(best.analytic.bytes));
    }
    if (c.expect_nr3 && best.chain_dir != VecI{1, -1, -1}) {
      throw Error("winner chain row " + dir_str(best.chain_dir) +
                  " is not (1,-1,-1)");
    }

    if (tracer.on()) {
      // Re-time both scorers on every evaluated candidate's plan (from
      // the search's own cache); the DES must reproduce its score.
      for (const ShapeScore& sc : r.result.scores) {
        if (sc.status != ShapeStatus::kEvaluated) continue;
        const auto p = cache.lookup(make_plan_key(
            c.app.nest, sc.h, CompiledPlan::Kind::kParallel, knobs));
        if (p == nullptr) continue;
        const auto a0 = Clock::now();
        {
          Tracer::Scope s(&tracer, "cluster.simulate_cluster");
          simulate_cluster(p->tiled(), p->mapping(), p->lds(), p->comm_plan(),
                           p->census(), machine, req.arity, req.schedule);
        }
        const auto a1 = Clock::now();
        double des = 0.0;
        {
          Tracer::Scope s(&tracer, "cluster.event_des_makespan");
          des = event_des_makespan(*p, machine, req.arity, req.schedule,
                                   req.seed);
        }
        const auto a2 = Clock::now();
        if (des != sc.des_makespan_s) {
          throw Error("event DES does not reproduce plan " +
                      sc.plan_id + "'s score");
        }
        r.analytic_s += seconds_between(a0, a1);
        r.des_s += seconds_between(a1, a2);
        r.rescored += 1;
      }
    }
    return r;
  };

  // ---- Guards: the first cycle's spaces, before timing.
  std::vector<SearchCase> cycle;
  for (int i = 0; i < 3; ++i) cycle.push_back(make_case(i, rng, opt.smoke));
  for (const SearchCase& c : cycle) {
    std::printf("guard: %-22s points %lld\n", c.label.c_str(),
                static_cast<long long>(c.points));
    const i64 lo = opt.smoke ? 1000 : 20000, hi = opt.smoke ? 20000 : 250000;
    if (c.points < lo || c.points > hi) {
      throw Error("workload guard failed: " + c.label + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(hi) +
                  "] points");
    }
  }

  std::vector<SearchRecord> records;
  const auto attempt = [&](const SearchCase& c, bool keep) {
    out.attempted += 1;
    try {
      SearchRecord r = search(c);
      if (keep) records.push_back(std::move(r));
    } catch (const std::exception& e) {
      out.fail(c.label + ": " + e.what());
    }
  };

  // ---- Warm-up (the first search is the slowest), then whole cycles of
  // sor, jacobi, adi until the time is up.
  attempt(cycle.front(), false);
  const auto loop_start = Clock::now();
  for (int round = 0;; ++round) {
    if (round > 0) {
      for (int i = 0; i < 3; ++i) cycle[i] = make_case(i, rng, opt.smoke);
    }
    for (const SearchCase& c : cycle) attempt(c, true);
    if (seconds_between(loop_start, Clock::now()) >= opt.seconds) break;
  }
  const double peak_mb = peak_rss_mb();
  if (records.empty()) throw Error("no search completed");

  std::vector<double> req_mpts, setup, search_s, makespans, verify_s;
  for (const SearchRecord& r : records) {
    req_mpts.push_back(static_cast<double>(r.points) /
                       (r.search_s + r.setup_s) * 1e-6);
    setup.push_back(r.setup_s);
    search_s.push_back(r.search_s);
    makespans.push_back(r.best_makespan_s * 1e3);
    verify_s.push_back(r.verify_s);
  }
  out.e2e["request_mpts"] = median(req_mpts);
  out.e2e["setup_s"] = median(setup);
  out.e2e["peak_rss_mb"] = peak_mb;
  out.headline["search_s"] = median(search_s);
  out.headline["request_mpts"] = out.e2e["request_mpts"];
  const double best_ms = geomean(makespans);

  std::printf("%zu timed searches (+1 warm-up), %.1f s loop\n",
              records.size(), seconds_between(loop_start, Clock::now()));
  std::printf("workload metrics:\n");
  print_metric("request_mpts", out.e2e["request_mpts"], "Mpts/s",
               "points / (search + winner lowering + proof), median");
  print_metric("search_s", median(search_s), "s",
               "one cold autotune_tile_shape, median");
  print_metric("best_makespan_ms", best_ms, "ms",
               "geometric mean of the winners' scores (deterministic)");
  print_metric("setup_s", out.e2e["setup_s"], "s",
               "winner compile_parallel + V1-V8, median");
  print_metric("peak_rss_mb", peak_mb, "MB");

  if (tracer.on()) {
    const double k = static_cast<double>(records.size());
    PlanPhaseTimes phases;
    double gen = 0, bound = 0, eval = 0, lowering = 0, des = 0, analytic = 0;
    i64 candidates = 0, invalid = 0, pruned = 0, evaluated = 0, misses = 0,
        rescored = 0, findings = 0;
    for (const SearchRecord& r : records) {
      phases.accumulate(r.cache.phase_total);
      misses += r.cache.misses;
      lowering += r.cache.lowering_s;
      gen += r.result.gen_s;
      bound += r.result.bound_s;
      eval += r.result.eval_s;
      candidates += r.result.candidates;
      invalid += r.result.invalid;
      pruned += r.result.pruned;
      evaluated += r.result.evaluated;
      des += r.des_s;
      analytic += r.analytic_s;
      rescored += r.rescored;
      findings += r.findings;
    }
    // The search hands compile_parallel a prebuilt TiledNest, so its
    // plans record no tile_space_s; that time sits in cluster.bound_s.
    const double lowered = static_cast<double>(std::max<i64>(1, misses));
    record_lowering_phases(out, phases, lowered);
    out.layers["runtime.lower_s"] = lowering / lowered;
    out.layers["verify.s"] = mean(verify_s);
    out.layers["verify.findings"] = static_cast<double>(findings);
    out.layers["cluster.gen_s"] = gen / k;
    out.layers["cluster.bound_s"] = bound / k;
    out.layers["cluster.eval_s"] = eval / k;
    out.layers["cluster.candidates"] = static_cast<double>(candidates) / k;
    out.layers["cluster.invalid"] = static_cast<double>(invalid) / k;
    out.layers["cluster.pruned"] = static_cast<double>(pruned) / k;
    out.layers["cluster.evaluated"] = static_cast<double>(evaluated) / k;
    out.layers["cluster.prune_rate"] =
        static_cast<double>(pruned) / static_cast<double>(pruned + evaluated);
    out.layers["cluster.lower_ms_per_eval"] = lowering / lowered * 1e3;
    const double n_rescored = static_cast<double>(std::max<i64>(1, rescored));
    out.layers["cluster.des_ms_per_eval"] = des / n_rescored * 1e3;
    out.layers["cluster.analytic_ms_per_eval"] = analytic / n_rescored * 1e3;
    out.layers["cluster.best_makespan_ms"] = best_ms;
  }
  return out;
}

}  // namespace perfbench
