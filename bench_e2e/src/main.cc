// End-to-end DataCell workload program: runs one workload and prints one
// `RESULT {...}` JSON line that run.py validates and reports.
//
//   datacell_e2e --workload text_drain --seed 1 --seconds 10 --trace 0
//
// Extra flags (used by `run.py smoke`): --fault-every N corrupts every N-th
// measured line; --rounds N measures exactly N rounds instead of a duration;
// --trace-out FILE sets where a traced run writes its Chrome trace.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

int Usage(const char* msg) {
  std::cerr << "datacell_e2e: " << msg
            << "\nusage: datacell_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--fault-every <n>] "
               "[--rounds <n>] [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--fault-every") {
      opts.fault_every = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--rounds") {
      opts.rounds = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--trace-out") {
      opts.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : e2e::WorkloadNames()) known |= w == opts.workload;
  if (!known) return Usage("unknown or missing --workload");
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");

  e2e::RunResult r;
  std::string error;
  if (!e2e::RunWorkload(opts, &r, &error)) {
    std::cerr << "datacell_e2e: " << error << "\n";
    return 1;
  }

  std::ostringstream out;
  out << "RESULT {\"workload\":" << JsonString(opts.workload)
      << ",\"seed\":" << opts.seed << ",\"trace\":" << (opts.trace ? 1 : 0)
      << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
        << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  out << "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : r.counts) {
    out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(v);
    first = false;
  }
  out << "},\"mismatches\":[";
  for (size_t i = 0; i < r.mismatches.size(); ++i) {
    out << (i ? "," : "") << JsonString(r.mismatches[i]);
  }
  out << "],\"notes\":[";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    out << (i ? "," : "") << JsonString(r.notes[i]);
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.input_digest));
  out << "],\"input_digest\":\"" << digest
      << "\",\"input_digest_tuples\":" << r.input_digest_tuples
      << ",\"provenance\":{\"build_type\":" << JsonString(E2E_BUILD_TYPE)
      << ",\"compiler\":" << JsonString(E2E_COMPILER)
      << ",\"datacell_trace\":" << JsonString(E2E_DATACELL_TRACE)
      << ",\"nproc\":" << std::thread::hardware_concurrency() << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
