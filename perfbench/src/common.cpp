#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <thread>

#include "runtime/compiled_plan.hpp"
#include "support/error.hpp"

namespace perfbench {

// ---- Tracer.

Tracer::Tracer(bool on) : on_(on), origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->on_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  s.id = static_cast<i64>(tracer_->spans_.size());
  s.parent = tracer_->open_.empty()
                 ? -1
                 : tracer_->spans_[tracer_->open_.back()].id;
  s.request = tracer_->request_;
  s.start_us = tracer_->now_us();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us = tracer_->now_us();
  tracer_->open_.pop_back();
}

std::size_t Tracer::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::ofstream out(path);
  if (!out) throw ctile::Error("cannot write trace file " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(s.name.substr(0, s.name.find('.')))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json_number(s.start_us)
        << ",\"dur\":" << json_number(s.end_us - s.start_us)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n],\"metadata\":{";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << json_escape(meta[i].first)
        << "\":\"" << json_escape(meta[i].second) << "\"";
  }
  out << "}}\n";
  out.close();
  if (!out) throw ctile::Error("failed writing trace file " + path);
  return spans_.size();
}

// ---- Metric catalogue.  The names and units here are the ones
// BENCHMARK.json lists; run.py --smoke checks the two agree.  What each
// end-to-end metric means per workload is in perfbench/README.md.

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"request_mpts", "Mpts/s", "", ""},
      {"setup_s", "s", "", ""},
      {"peak_rss_mb", "MB", "", ""},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"tiling.tile_space_s", "s",
       "setup_s (sor-interior, adi-boundary); miss_p50_ms (plan-service)",
       "per lowered plan, mean"},
      {"tiling.census_s", "s",
       "setup_s + request_mpts (exec); miss_p50_ms + service_rps "
       "(plan-service); search_s (shape-search)",
       "per lowered plan, mean"},
      {"tiling.classifier_s", "s", "setup_s (exec)",
       "per lowered plan, mean"},
      {"tiling.band_s", "s", "setup_s (exec)",
       "per lowered plan, mean"},
      {"runtime.mapping_s", "s", "miss_p50_ms (plan-service)",
       "per lowered plan, mean"},
      {"runtime.lds_s", "s", "miss_p50_ms (plan-service)",
       "per lowered plan, mean"},
      {"runtime.comm_plan_s", "s", "miss_p50_ms (plan-service)",
       "per lowered plan, mean"},
      {"runtime.locals_s", "s",
       "search_s (shape-search); <1% of setup_s on exec",
       "per lowered plan, mean"},
      {"runtime.lower_s", "s",
       "setup_s (exec); miss_p50_ms (plan-service)",
       "compile_parallel wall time, mean per plan"},
      {"runtime.run_s", "s", "run_mpts (sor-interior, adi-boundary)",
       "ParallelExecutor::run on the thread backend, median per request"},
      {"runtime.cpu_util", "ratio", "run_mpts (exec)",
       "process CPU seconds during run / (run wall x hardware threads)"},
      {"runtime.compute_s", "s", "run_mpts (exec)",
       "PhaseTimes compute summed over ranks, event-backend replay"},
      {"runtime.pack_s", "s", "run_mpts (exec)",
       "PhaseTimes pack summed over ranks, event-backend replay"},
      {"runtime.unpack_s", "s", "run_mpts (exec)",
       "PhaseTimes unpack summed over ranks, event-backend replay"},
      {"runtime.other_s", "s", "run_mpts (exec)",
       "replay wall - (compute + pack + unpack): write-back, LDS "
       "allocation, fiber switches"},
      {"runtime.interior_pts_frac", "ratio",
       "nothing; says which sweep path ran",
       "points in interior tiles / points"},
      {"runtime.speedup_vs_rowseq", "ratio",
       "nothing; machine-independent ratio",
       "run_mpts (traced run) / apps.rowseq_mpts"},
      {"runtime.cache_hit_us", "us", "service_rps (plan-service)",
       "PlanCache::get_or_lower on a hit, median"},
      {"runtime.cache_key_us", "us", "service_rps (plan-service)",
       "make_plan_key, median"},
      {"runtime.cache_hit_rate", "ratio",
       "service_rps (plan-service)", "PlanCache::Stats hits / (hits + misses)"},
      {"runtime.cache_misses", "count", "service_rps (plan-service)",
       "PlanCache::Stats misses"},
      {"verify.s", "s",
       "setup_s (sor-interior ~20%, adi-boundary ~1%); miss_p50_ms",
       "snapshot_compiled + verify_plan, mean per plan"},
      {"verify.findings", "count", "failed operations",
       "diagnostics over every proven plan"},
      {"mpisim.messages", "count", "run_mpts (sor-interior)",
       "ParallelRunStats messages per run"},
      {"mpisim.doubles", "count", "run_mpts (sor-interior)",
       "ParallelRunStats payload doubles per run"},
      {"mpisim.bytes_per_point", "B/pt", "run_mpts (sor-interior)",
       "8 x doubles / points"},
      {"apps.rowseq_mpts", "Mpts/s",
       "run_mpts (sor-interior); not adi-boundary",
       "points / wall of the untiled row sweep through compute_row"},
      {"apps.oracle_mpts", "Mpts/s", "nothing; the oracle",
       "points / wall of run_sequential"},
      {"cluster.gen_s", "s", "search_s (shape-search)",
       "ShapeSearchResult gen_s, mean per search"},
      {"cluster.bound_s", "s", "search_s (shape-search)",
       "ShapeSearchResult bound_s (summed over workers), mean per search"},
      {"cluster.eval_s", "s", "search_s (shape-search)",
       "ShapeSearchResult eval_s (summed over workers), mean per search"},
      {"cluster.candidates", "count", "search_s (shape-search)",
       "enumerated candidates, mean per search"},
      {"cluster.invalid", "count", "search_s (shape-search)",
       "invalid candidates, mean per search"},
      {"cluster.pruned", "count", "search_s (shape-search)",
       "bound-pruned candidates, mean per search"},
      {"cluster.evaluated", "count", "search_s (shape-search)",
       "lowered + scored candidates, mean per search"},
      {"cluster.prune_rate", "ratio", "search_s (shape-search)",
       "pruned / (pruned + evaluated), over all searches"},
      {"cluster.lower_ms_per_eval", "ms", "search_s (shape-search)",
       "search cache Stats.lowering_s / misses"},
      {"cluster.des_ms_per_eval", "ms", "search_s (shape-search)",
       "event_des_makespan re-timed on evaluated plans, mean"},
      {"cluster.analytic_ms_per_eval", "ms",
       "search_s (shape-search)",
       "simulate_cluster re-timed on evaluated plans, mean"},
      {"cluster.best_makespan_ms", "ms",
       "best_makespan_ms (shape-search); deterministic",
       "geometric mean over searches of the winner's score"},
  };
  return defs;
}

void Outcome::fail(const std::string& why) {
  failed += 1;
  std::fprintf(stderr, "perfbench: FAILED operation: %s\n", why.c_str());
}

void record_lowering_phases(Outcome& out, const ctile::PlanPhaseTimes& total,
                            double plans) {
  out.layers["tiling.tile_space_s"] = total.tile_space_s / plans;
  out.layers["tiling.census_s"] = total.census_s / plans;
  out.layers["tiling.classifier_s"] = total.classifier_s / plans;
  out.layers["tiling.band_s"] = total.band_s / plans;
  out.layers["runtime.mapping_s"] = total.mapping_s / plans;
  out.layers["runtime.lds_s"] = total.lds_s / plans;
  out.layers["runtime.comm_plan_s"] = total.comm_plan_s / plans;
  out.layers["runtime.locals_s"] = total.locals_s / plans;
}

// ---- Numeric helpers.

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw ctile::Error("percentile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

u64 digest_doubles(const double* data, std::size_t n) {
  u64 h = 0xcbf29ce484222325ULL ^ static_cast<u64>(n);
  for (std::size_t i = 0; i < n; ++i) {
    u64 w = 0;
    std::memcpy(&w, &data[i], sizeof w);
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double process_cpu_seconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Same rule as bench/bench_util's fit_parts; the benchmark builds only
// src/, so that a change to the figure benches cannot break it.
i64 fit_parts(i64 lo, i64 hi, i64 parts) {
  for (i64 s = 1; s <= hi - lo + 1; ++s) {
    const i64 count = ctile::floor_div(hi, s) - ctile::floor_div(lo, s) + 1;
    if (count == parts) return s;
    if (count < parts) break;
  }
  throw ctile::Error("fit_parts: no tile size spans [" + std::to_string(lo) +
                     "," + std::to_string(hi) + "] with " +
                     std::to_string(parts) + " parts");
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("  %-28s %14.6g %-7s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

}  // namespace perfbench
