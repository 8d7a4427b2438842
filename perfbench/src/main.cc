// perfbench: runs one benchmark workload against the brahma library and
// prints a one-line JSON report as its last line of output.
//
//   perfbench --workload walk_ira --seed 1 --seconds 10 --trace 0
//             [--workdir DIR] [--trace-out FILE]
//             [--source-id ID]
//
// Exit status: 0 when the run completed and every check passed, 1 when a
// check failed (the report is still printed), 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[160];
    // %.17g keeps every digit the measurement has.
    std::snprintf(buf, sizeof(buf),
                  "{\"value\":%.17g,\"unit\":%s,\"samples\":%llu}",
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                  JsonString(ms[i].unit).c_str(),
                  static_cast<unsigned long long>(ms[i].samples));
    out += (i > 0 ? "," : "") + JsonString(ms[i].name) + ":" + buf;
  }
  return out + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] "
               "[--trace-out FILE] [--source-id ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (!(args.seconds > 0)) return Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--workdir") {
      args.workdir = v;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else if (flag == "--source-id") {
      args.source_id = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");

  const perfbench::RunResult r = perfbench::RunWorkload(args);
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::string problems = "[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i > 0 ? "," : "") + JsonString(r.problems[i]);
  }
  problems += "]";
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"end_to_end\":%s,\"per_layer\":%s,\"descriptor\":%s,"
      "\"problems\":%s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      MetricsJson(r.end_to_end).c_str(), MetricsJson(r.per_layer).c_str(),
      r.descriptor_json.empty() ? "{}" : r.descriptor_json.c_str(),
      problems.c_str());
  return r.correct ? 0 : 1;
}
