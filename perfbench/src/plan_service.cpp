// The plan-service workload: a seeded stream of `lower` requests served
// the way ctile_pland serves them — one PlanCache, and every miss is
// lowered and proven (V1-V8) before it is cached.  No rank runs.
//
// The stream is built in blocks of ten distinct plans.  A block holds one
// plan of each (app, flavour) pair below and one of each of ten
// log-spaced size strata, both in seeded order, with a seeded jitter
// inside each stratum; every plan is requested three times in a seeded
// shuffle of the block.  So each seed sees the same mix of apps and
// sizes (which keeps run-to-run spread small) but different plans.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "apps/kernels.hpp"
#include "common.hpp"
#include "runtime/plan_cache.hpp"
#include "support/rng.hpp"
#include "verify/plan_model.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace ctile;

constexpr int kBlock = 10;         ///< distinct plans per block
constexpr int kRepeats = 3;        ///< requests per plan
constexpr int kMinMisses = 100;    ///< >= 10 misses beyond miss_p90_ms

struct PlanRequest {
  std::string label;
  AppInstance app;
  MatQ h;
  int force_m = 0;
  i64 points = 0;
  PlanKey key;
};

/// One distinct plan: (app, flavour) pair `combo`, target size from
/// `stratum`, mesh extents and chain tile counts drawn from `rng`.
PlanRequest make_plan(Rng& rng, int combo, int stratum, bool smoke) {
  const double lo_pts = smoke ? 2e3 : 1e5;  // one decade: [lo, 10 lo)
  const double target =
      lo_pts * std::pow(10.0, (stratum + rng.uniform01()) / kBlock);
  const i64 e1 = rng.uniform(2, 4);  // mesh extents
  const i64 e2 = rng.uniform(2, 4);
  const i64 c = rng.uniform(3, 8);   // tiles along the chain
  const auto cube = static_cast<i64>(std::llround(std::cbrt(target) / 2));
  PlanRequest p;
  char buf[96];
  switch (combo) {
    case 0:
    case 1: {  // SOR, force_m = 2: mesh over (t, t+i), chain over 2t+j
      const i64 m = std::max<i64>(4, cube);
      const i64 n = std::max<i64>(4, std::llround(std::sqrt(target / m)));
      p.app = make_sor(m, n);
      const i64 x = ceil_div(m, e1), y = ceil_div(m + n, e2),
                z = ceil_div(2 * m + n, c);
      p.h = combo == 0 ? sor_rect_h(x, y, z) : sor_nonrect_h(x, y, z);
      p.force_m = 2;
      p.points = m * n * n;
      std::snprintf(buf, sizeof buf, "sor-%s M=%lld N=%lld",
                    combo == 0 ? "rect" : "nonrect",
                    static_cast<long long>(m), static_cast<long long>(n));
      break;
    }
    case 2:
    case 3: {  // Jacobi, force_m = 0: chain over t
      const i64 t = std::max<i64>(4, cube);
      const i64 ij = std::max<i64>(4, std::llround(std::sqrt(target / t)));
      p.app = make_jacobi(t, ij, ij);
      const i64 x = ceil_div(t, c);
      i64 y = ceil_div(t + ij, e1);
      y += y % 2;  // the nonrect family needs an even y
      const i64 z = ceil_div(t + ij, e2);
      p.h = combo == 2 ? jacobi_rect_h(x, y, z) : jacobi_nonrect_h(x, y, z);
      p.force_m = 0;
      p.points = t * ij * ij;
      std::snprintf(buf, sizeof buf, "jacobi-%s T=%lld I=J=%lld",
                    combo == 2 ? "rect" : "nonrect",
                    static_cast<long long>(t), static_cast<long long>(ij));
      break;
    }
    case 4:
    case 5:
    case 6:
    case 7: {  // ADI, force_m = 0: chain over t
      const i64 t = std::max<i64>(4, cube);
      const i64 n = std::max<i64>(4, std::llround(std::sqrt(target / t)));
      p.app = make_adi(t, n);
      const i64 x = ceil_div(t, c), y = ceil_div(n, e1),
                z = ceil_div(n, e2);
      static const char* names[] = {"rect", "nr1", "nr2", "nr3"};
      p.h = combo == 4   ? adi_rect_h(x, y, z)
            : combo == 5 ? adi_nr1_h(x, y, z)
            : combo == 6 ? adi_nr2_h(x, y, z)
                         : adi_nr3_h(x, y, z);
      p.force_m = 0;
      p.points = t * n * n;
      std::snprintf(buf, sizeof buf, "adi-%s T=%lld N=%lld", names[combo - 4],
                    static_cast<long long>(t), static_cast<long long>(n));
      break;
    }
    default: {  // heat (2-D), force_m = 0: chain over t
      const i64 t =
          std::max<i64>(4, std::llround(std::sqrt(target) / 4));
      const i64 n = std::max<i64>(4, std::llround(target / t));
      p.app = make_heat(t, n);
      const i64 x = ceil_div(t, c), y = ceil_div(t + n, e1);
      p.h = combo == 8 ? heat_rect_h(x, y) : heat_nonrect_h(x, y);
      p.force_m = 0;
      p.points = t * n;
      std::snprintf(buf, sizeof buf, "heat-%s T=%lld N=%lld",
                    combo == 8 ? "rect" : "nonrect",
                    static_cast<long long>(t), static_cast<long long>(n));
      break;
    }
  }
  p.label = buf;
  LoweringKnobs knobs;
  knobs.force_m = p.force_m;
  p.key = make_plan_key(p.app.nest, p.h, CompiledPlan::Kind::kParallel, knobs);
  return p;
}

template <typename T>
void shuffle(std::vector<T>& xs, Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<i64>(i) - 1));
    std::swap(xs[i - 1], xs[j]);
  }
}

struct Block {
  std::vector<PlanRequest> plans;
  std::vector<int> order;  ///< request stream: indices into plans
};

/// A block of distinct plans, none of which appeared in an earlier block.
Block make_block(Rng& rng, bool smoke, std::set<std::string>& seen) {
  std::vector<int> combos(kBlock), strata(kBlock);
  for (int k = 0; k < kBlock; ++k) combos[k] = strata[k] = k;
  shuffle(combos, rng);
  shuffle(strata, rng);
  Block b;
  for (int k = 0; k < kBlock; ++k) {
    PlanRequest p = make_plan(rng, combos[k], strata[k], smoke);
    while (!seen.insert(p.key.bytes).second) {
      p = make_plan(rng, combos[k], strata[k], smoke);
    }
    b.plans.push_back(std::move(p));
    for (int r = 0; r < kRepeats; ++r) b.order.push_back(k);
  }
  shuffle(b.order, rng);
  return b;
}

struct Served {
  bool hit = false;
  double latency_s = 0.0;
  double key_s = 0.0;
  double get_s = 0.0;    ///< get_or_lower alone
  double setup_s = 0.0;  ///< miss: compile_parallel + proof
  double lower_s = 0.0;
  double verify_s = 0.0;
  i64 points = 0;
  PlanPhaseTimes phases;
};

}  // namespace

Outcome run_plan_service(const Options& opt, Tracer& tracer) {
  Outcome out;
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 11);
  std::set<std::string> seen;
  PlanCache cache;
  // Hits only ever come from the current block, so two blocks of plans
  // bound the cache's memory without changing a single hit or miss.
  cache.set_capacity(2 * kBlock);

  // ---- Guards on the first block, before timing.
  Block block = make_block(rng, opt.smoke, seen);
  {
    i64 lo = block.plans.front().points, hi = lo;
    for (const PlanRequest& p : block.plans) {
      lo = std::min(lo, p.points);
      hi = std::max(hi, p.points);
    }
    const i64 want_lo = opt.smoke ? 1000 : 80000;
    const i64 want_hi = opt.smoke ? 25000 : 1200000;
    std::printf(
        "guard: block of %d distinct plans x %d requests (planned hit share "
        "%.4f), points %lld..%lld\n",
        kBlock, kRepeats, 1.0 - 1.0 / kRepeats, static_cast<long long>(lo),
        static_cast<long long>(hi));
    if (static_cast<int>(block.plans.size()) != kBlock ||
        static_cast<int>(block.order.size()) != kBlock * kRepeats ||
        lo < want_lo || hi > want_hi) {
      throw Error("workload guard failed: plan-service block shape");
    }
  }

  std::map<std::string, const CompiledPlan*> served_plan;
  i64 next_id = 0;
  i64 findings_total = 0;
  const auto serve = [&](const PlanRequest& p) {
    Served s;
    s.points = p.points;
    tracer.set_request(next_id++);
    Tracer::Scope request_span(&tracer, "request");
    LoweringKnobs knobs;
    knobs.force_m = p.force_m;
    const auto t0 = Clock::now();
    PlanKey key;
    {
      Tracer::Scope sp(&tracer, "runtime.make_plan_key");
      key = make_plan_key(p.app.nest, p.h, CompiledPlan::Kind::kParallel,
                          knobs);
    }
    const auto t1 = Clock::now();
    std::shared_ptr<const CompiledPlan> plan;
    {
      Tracer::Scope sp(&tracer, "runtime.PlanCache::get_or_lower");
      plan = cache.get_or_lower(
          key,
          [&] {
            const auto l0 = Clock::now();
            std::shared_ptr<const CompiledPlan> lowered;
            {
              Tracer::Scope sl(&tracer, "runtime.compile_parallel");
              lowered = CompiledPlan::compile_parallel(p.app.nest, p.h, knobs);
            }
            const auto l1 = Clock::now();
            std::size_t findings = 0;
            {
              Tracer::Scope sv(&tracer, "verify.verify_plan");
              const verify::PlanModel model =
                  verify::snapshot_compiled(*lowered);
              findings = verify::verify_plan(model).diagnostics().size();
            }
            findings_total += static_cast<i64>(findings);
            const auto l2 = Clock::now();
            s.lower_s = seconds_between(l0, l1);
            s.verify_s = seconds_between(l1, l2);
            s.setup_s = seconds_between(l0, l2);
            if (findings != 0) {
              throw LegalityError("plan verification reported " +
                                  std::to_string(findings) + " finding(s)");
            }
            return lowered;
          },
          &s.hit);
    }
    const auto t2 = Clock::now();
    s.key_s = seconds_between(t0, t1);
    s.get_s = seconds_between(t1, t2);
    s.latency_s = seconds_between(t0, t2);
    if (!s.hit) s.phases = plan->phase_times();
    // Content addressing: a hit returns the very plan its miss lowered,
    // and that plan accounts for every point of the space.
    const auto [it, first] = served_plan.emplace(key.bytes, plan.get());
    if (!first && it->second != plan.get()) {
      throw Error(p.label + ": hit returned a different plan");
    }
    if (first == s.hit) {
      throw Error(p.label + ": miss/hit does not match first request");
    }
    if (plan->census().total() != p.points) {
      throw Error(p.label + ": census counts " +
                  std::to_string(plan->census().total()) + " points, not " +
                  std::to_string(p.points));
    }
    return s;
  };

  std::vector<Served> served;
  const auto run_block = [&](const Block& b, bool keep) {
    served_plan.clear();
    for (int k : b.order) {
      out.attempted += 1;
      try {
        Served s = serve(b.plans[static_cast<std::size_t>(k)]);
        if (keep) served.push_back(s);
      } catch (const std::exception& e) {
        out.fail(b.plans[static_cast<std::size_t>(k)].label + ": " +
                 e.what());
      }
    }
  };

  // ---- Warm-up block, then whole blocks until the time is up.
  run_block(block, false);
  const PlanCache::Stats warm = cache.stats();
  const auto loop_start = Clock::now();
  i64 blocks = 0;
  i64 misses = 0;
  while (true) {
    block = make_block(rng, opt.smoke, seen);
    run_block(block, true);
    blocks += 1;
    misses += kBlock;
    if (seconds_between(loop_start, Clock::now()) >= opt.seconds &&
        (opt.smoke || misses >= kMinMisses)) {
      break;
    }
  }
  const double peak_mb = peak_rss_mb();
  const PlanCache::Stats stats = cache.stats();

  std::vector<double> miss_ms, setup, lower, verify_s, key_us, hit_us;
  double total_latency = 0.0;
  double total_points = 0.0;
  i64 hits = 0;
  PlanPhaseTimes phases;
  for (const Served& s : served) {
    total_latency += s.latency_s;
    total_points += static_cast<double>(s.points);
    key_us.push_back(s.key_s * 1e6);
    if (s.hit) {
      hits += 1;
      hit_us.push_back(s.get_s * 1e6);
    } else {
      miss_ms.push_back(s.latency_s * 1e3);
      setup.push_back(s.setup_s);
      lower.push_back(s.lower_s);
      verify_s.push_back(s.verify_s);
      phases.accumulate(s.phases);
    }
  }
  if (miss_ms.empty() || hit_us.empty()) throw Error("no request completed");
  const double hit_share =
      static_cast<double>(hits) / static_cast<double>(served.size());
  std::printf(
      "guard: %lld blocks, %zu requests, %zu misses, hit share %.4f\n",
      static_cast<long long>(blocks), served.size(), miss_ms.size(),
      hit_share);
  if (out.failed == 0 &&
      (static_cast<i64>(miss_ms.size()) != blocks * kBlock ||
       hits != blocks * kBlock * (kRepeats - 1))) {
    throw Error("workload guard failed: misses/hits do not match the stream");
  }

  out.e2e["request_mpts"] = total_points / total_latency * 1e-6;
  out.e2e["setup_s"] = median(setup);
  out.e2e["peak_rss_mb"] = peak_mb;
  const double p50 = percentile(miss_ms, 50);
  const double p90 = percentile(miss_ms, 90);
  out.headline["miss_p50_ms"] = p50;
  out.headline["request_mpts"] = out.e2e["request_mpts"];

  std::printf("workload metrics:\n");
  print_metric("request_mpts", out.e2e["request_mpts"], "Mpts/s",
               "points answered / request time, hits included");
  print_metric("miss_p50_ms", p50, "ms",
               "key + lower + verify + insert, " +
                   std::to_string(miss_ms.size()) + " misses");
  const auto beyond = static_cast<long long>(
      std::count_if(miss_ms.begin(), miss_ms.end(),
                    [p90](double v) { return v > p90; }));
  print_metric("miss_p90_ms", p90, "ms",
               std::to_string(beyond) + " misses beyond it");
  print_metric("service_rps",
               static_cast<double>(served.size()) / total_latency, "req/s",
               "requests answered / request time");
  print_metric("setup_s", out.e2e["setup_s"], "s",
               "compile_parallel + V1-V8 of a miss, median");
  print_metric("peak_rss_mb", peak_mb, "MB");

  if (tracer.on()) {
    const double k = static_cast<double>(miss_ms.size());
    record_lowering_phases(out, phases, k);
    out.layers["runtime.lower_s"] = mean(lower);
    out.layers["verify.s"] = mean(verify_s);
    out.layers["verify.findings"] = static_cast<double>(findings_total);
    out.layers["runtime.cache_hit_us"] = median(hit_us);
    out.layers["runtime.cache_key_us"] = median(key_us);
    const i64 timed_hits = stats.hits - warm.hits;
    const i64 timed_misses = stats.misses - warm.misses;
    out.layers["runtime.cache_hit_rate"] =
        static_cast<double>(timed_hits) /
        static_cast<double>(timed_hits + timed_misses);
    out.layers["runtime.cache_misses"] = static_cast<double>(timed_misses);
  }
  return out;
}

}  // namespace perfbench
