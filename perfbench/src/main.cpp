// perfbench: the whole-request benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR] [--commit SHA]
//
// Runs one workload as a closed loop from a single client thread, checks
// every output, and prints human-readable lines followed, as the last
// line of stdout, by one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics, and the run also writes its spans as
// Chrome trace-event JSON to DIR/trace-<workload>-seed<N>.json.
//
// Exit codes: 0 all outputs correct; 1 an operation failed (the JSON is
// still printed) or a workload guard failed (no JSON); 2 bad usage or a
// CTILE_* variable in the environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "support/json.hpp"

extern char** environ;

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"sor-interior", "adi-boundary",
                                      "plan-service", "shape-search"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "sor-interior|adi-boundary|plan-service|shape-search\n"
               "                 --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                 [--out-dir DIR] [--commit SHA]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt->smoke = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      opt->workload = argv[++i];
    } else if (a == "--seed") {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      opt->trace = std::string(argv[++i]) == "1";
    } else if (a == "--out-dir") {
      opt->out_dir = argv[++i];
    } else if (a == "--commit") {
      opt->commit = argv[++i];
    } else {
      return false;
    }
  }
  for (const char* w : kWorkloads) {
    if (opt->workload == w) return opt->seconds > 0;
  }
  return false;
}

/// CTILE_* variables switch backend, policy, memory backend and thread
/// counts under the library's defaults; a run with any of them set would
/// not measure the workload as defined.
std::string ctile_env_var() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CTILE_", 6) == 0) return *e;
  }
  return "";
}

std::vector<std::pair<std::string, std::string>> provenance(
    const Options& opt) {
  return {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", json_number(opt.seconds)},
      {"size", opt.smoke ? "smoke" : "full"},
      {"trace", opt.trace ? "1" : "0"},
      {"nproc", std::to_string(hardware_threads())},
      {"cpu", cpu_model()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"flags", PERFBENCH_FLAGS},
      {"commit", opt.commit},
  };
}

std::string summary_path(const Options& opt) {
  return opt.out_dir + "/e2e-" + opt.workload + "-seed" +
         std::to_string(opt.seed) + (opt.smoke ? "-smoke" : "") + ".json";
}

/// The untraced run saves its headline numbers; the traced run on the
/// same seed compares its own against them (the tracing overhead).
void save_headline(const Options& opt, const Outcome& out) {
  std::ofstream f(summary_path(opt));
  f << "{";
  bool first = true;
  for (const auto& [name, value] : out.headline) {
    f << (first ? "" : ",") << "\"" << name << "\":" << json_number(value);
    first = false;
  }
  f << "}\n";
}

void report_overhead(const Options& opt, const Outcome& out) {
  std::ifstream f(summary_path(opt));
  if (!f) {
    std::printf("trace overhead: no untraced run of this seed to compare\n");
    return;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  const ctile::json::ValuePtr saved = ctile::json::parse(ss.str());
  for (const auto& [name, traced] : out.headline) {
    const ctile::json::ValuePtr v = saved->find(name);
    if (v == nullptr) continue;
    const double untraced = v->as_double();
    std::printf("trace overhead: %-14s untraced %.6g  traced %.6g  (%+.1f%%)\n",
                name.c_str(), untraced, traced,
                100.0 * (traced - untraced) / untraced);
  }
}

void print_layer_report(const Options& opt, const Outcome& out) {
  std::printf("per-layer metrics (%s):\n", opt.workload.c_str());
  for (const MetricDef& d : per_layer_defs()) {
    const auto it = out.layers.find(d.name);
    if (it == out.layers.end()) {
      std::printf("  %-30s %14s %-7s  not on this workload's path\n", d.name,
                  "0", d.unit);
      continue;
    }
    std::printf("  %-30s %14.6g %-7s  moves: %s\n", d.name, it->second,
                d.unit, d.moves);
    std::printf("  %-30s %14s %-7s  base:  %s\n", "", "", "", d.base);
  }
}

void print_result(const Outcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : trace ? per_layer_defs() : end_to_end_defs()) {
    const auto& values = trace ? out.layers : out.e2e;
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + json_number(v) + ", \"unit\": \"" + d.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return usage();
  const std::string env = ctile_env_var();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; CTILE_* variables "
                 "change the library defaults the workloads are defined by\n",
                 env.c_str());
    return 2;
  }
  if (opt.out_dir.empty()) opt.out_dir = ".";
  const auto meta = provenance(opt);
  std::string prov = "provenance: {";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    prov += (i == 0 ? "\"" : ", \"") + meta[i].first + "\": \"" +
            json_escape(meta[i].second) + "\"";
  }
  std::printf("%s}\n", prov.c_str());

  Tracer tracer(opt.trace);
  Outcome out;
  try {
    if (opt.workload == "plan-service") {
      out = run_plan_service(opt, tracer);
    } else if (opt.workload == "shape-search") {
      out = run_shape_search(opt, tracer);
    } else {
      out = run_exec_workload(opt, tracer);
    }
    if (opt.trace) {
      print_layer_report(opt, out);
      report_overhead(opt, out);
      const std::string path = opt.out_dir + "/trace-" + opt.workload +
                               "-seed" + std::to_string(opt.seed) +
                               (opt.smoke ? "-smoke" : "") + ".json";
      const std::size_t written = tracer.write_chrome(path, meta);
      // The spans file must parse with the in-tree JSON reader.
      std::ifstream f(path);
      std::stringstream ss;
      ss << f.rdbuf();
      const std::size_t parsed =
          ctile::json::parse(ss.str())->get("traceEvents").as_array().size();
      if (parsed != written) {
        throw ctile::Error("trace file re-parse found " +
                           std::to_string(parsed) + " of " +
                           std::to_string(written) + " spans");
      }
      std::printf("trace: %zu spans written to %s (re-parsed OK)\n", written,
                  path.c_str());
    } else {
      save_headline(opt, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("operations: %lld attempted, %lld failed\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  print_result(out, opt.trace);
  return out.failed == 0 ? 0 : 1;
}
