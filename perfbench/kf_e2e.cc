// kf_e2e — the end-to-end fusion benchmark program. One process runs one
// seeded workload through the public API, checks its outputs, and prints
// its metrics (perfbench/run.py builds it and forwards the arguments):
//
//   kf_e2e --workload batch_tsv|batch_bin_budget|serve_stream --seed N
//          --seconds S --trace 0|1 --workdir DIR
//
// Inputs come from the synthetic generator seeded by --seed and are made
// outside every timed region. --trace 0 reports the end-to-end metrics;
// --trace 1 additionally drives each layer's public calls one at a time
// from this file, keeps one span per call in memory, writes the spans to
// DIR at the end, and reports the per-layer metrics. The last stdout line
// is one JSON object with the keys correct, attempted, failed and metrics.
// perfbench/README.md explains every workload and metric.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/memprobe.h"
#include "common/random.h"
#include "extract/dataset.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "fusion/registry.h"
#include "kf/fused_kb.h"
#include "kf/kb_server.h"
#include "kf/session.h"
#include "store/store.h"
#include "synth/corpus.h"

namespace {

using namespace kf;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---- pinned workload parameters (printed with every run) ----

constexpr double kBatchScale = 2.0;         // synth scale of the batch corpus
constexpr double kServeScale = 1.0;         // synth scale of the serve corpus
// Every seed's corpus is cut to a fixed record count (the generator's size
// varies by +-25% with the seed): 240k of scale 2's 242k-318k records, and
// 100k of scale 1's 107k-172k (half prefix, half streamed tail).
constexpr size_t kBatchRecords = 240000;
constexpr size_t kServeRecords = 100000;
constexpr size_t kNumShards = 16;           // claim-graph shards, all workloads
constexpr size_t kBatchWorkers = 2;         // fusion workers, batch workloads
constexpr size_t kBudgetPercent = 25;       // batch_bin_budget memory budget
constexpr double kRenderThreshold = 0.5;    // batch_tsv AboveThreshold cut
constexpr int kSetupReps = 5;               // setup_s is a median of these
constexpr int kMinBuilds = 3;               // per kind, even past --seconds
constexpr size_t kProbeRequestsPerBuild = 2000;
constexpr size_t kLookupsPerRequest = 16;
constexpr double kAbsentFraction = 0.10;
constexpr double kKeyZipf = 1.0;
constexpr size_t kAbsentPool = 256;
constexpr double kBatchIntervalS = 0.200;   // serve_stream: one batch per 200 ms
constexpr int kReaders = 2;
constexpr double kReaderRate = 2000.0;      // requests/s per reader
constexpr auto kSpinWindow = std::chrono::microseconds(300);
constexpr size_t kColdRounds = 30;          // rounds of the cold publish
constexpr size_t kWarmRounds = 2;           // rounds per warm republish
constexpr double kWarmDriftLimit = 0.05;    // mean |p_warm - p_cold|

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}
double MiB(double bytes) { return bytes / (1024.0 * 1024.0); }

// ---- samples ----

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Linearly interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
  double Median() const { return Quantile(0.5); }
  double Mean() const {
    double sum = 0.0;
    for (double v : v_) sum += v;
    return v_.empty() ? 0.0 : sum / static_cast<double>(v_.size());
  }

  /// "p50 .. p99.9 .. max" — the shape of a latency distribution.
  std::string Distribution() const {
    std::string out;
    char buf[48];
    for (double p : {50.0, 90.0, 98.0, 99.0, 99.5, 99.8, 99.9, 100.0}) {
      std::snprintf(buf, sizeof(buf), "%sp%g %.4g", out.empty() ? "" : " ",
                    p, Quantile(p / 100.0));
      out += buf;
    }
    return out;
  }

  /// "median M, pXX Y, n N": the highest standard percentile with at
  /// least ten samples beyond it, when there is one.
  std::string Summary() const {
    char buf[160];
    int len = std::snprintf(buf, sizeof(buf), "median %.6g", Median());
    for (double p : {99.99, 99.9, 99.0, 90.0, 75.0}) {
      if (static_cast<double>(v_.size()) * (1.0 - p / 100.0) >= 10.0) {
        len += std::snprintf(buf + len, sizeof(buf) - len, ", p%g %.6g", p,
                             Quantile(p / 100.0));
        break;
      }
    }
    std::snprintf(buf + len, sizeof(buf) - len, ", n %zu", v_.size());
    return buf;
  }

 private:
  std::vector<double> v_;
};

// ---- metrics and the result line ----

struct MetricDef {
  const char* name;
  const char* unit;
};

// The BENCHMARK.json lists, in order. --trace 0 prints kEndToEnd, --trace 1
// prints kPerLayer; a metric a workload's path does not touch reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"build_records_per_s", "records/s"},
    {"lookup_p50_us", "us"},
    {"lookup_p90_us", "us"},
    {"freshness_p50_ms", "ms"},
    {"freshness_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"extract.read_tsv_s", "s"},
    {"extract.tsv_mb_per_s", "MiB/s"},
    {"store.load_corpus_s", "s"},
    {"store.kb_export_s", "s"},
    {"store.kb_bytes", "bytes"},
    {"fusion.graph_build_s", "s"},
    {"fusion.prepare_s", "s"},
    {"fusion.stage1_s", "s"},
    {"fusion.stage2_s", "s"},
    {"fusion.rounds", "count"},
    {"fusion.claims", "count"},
    {"fusion.shard_skew", "ratio"},
    {"spill.fuse_s", "s"},
    {"spill.overhead_ratio", "ratio"},
    {"spill.bytes_written", "bytes"},
    {"spill.files_written", "count"},
    {"spill.maps_opened", "count"},
    {"spill.high_water_mb", "MiB"},
    {"spill.budget_mb", "MiB"},
    {"spill.retries", "count"},
    {"kf.fuse_s", "s"},
    {"kf.snapshot_s", "s"},
    {"kf.query_s", "s"},
    {"kf.append_ms", "ms"},
    {"kf.publish_p50_ms", "ms"},
    {"kf.publish_p90_ms", "ms"},
    {"kf.publish_rounds", "count"},
    {"kf.publish_failures", "count"},
    {"kf.acquire_us", "us"},
    {"kf.lookup_ns", "ns"},
    {"kf.request_p99_us", "us"},
    {"kf.generations_seen", "count"},
    {"kf.warm_drift", "ratio"},
    {"rss.load_mb", "MiB"},
    {"rss.fuse_mb", "MiB"},
    {"rss.snapshot_mb", "MiB"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.achieved_ratio", "ratio"},
    {"loadgen.ingest_backlog_max", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Operation counts, check outcomes, and metric values of one run.
class Report {
 public:
  /// Counts one attempted operation (a build, a request, a publish, or a
  /// check); a false `ok` counts it failed and logs `what`.
  bool Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  /// Counts `attempted` operations at once, `failed` of them failed.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    if (failed > 0) {
      failed_ += failed;
      std::fprintf(stderr, "FAILED: %llu x %s\n",
                   static_cast<unsigned long long>(failed), what.c_str());
    }
  }

  void Metric(const std::string& name, double value, const char* unit,
              const Samples* from = nullptr) {
    values_[name] = value;
    std::printf("metric %-28s %14.6g %-9s%s%s\n", name.c_str(), value, unit,
                from ? "  # " : "", from ? from->Summary().c_str() : "");
  }

  /// Median of per-build samples, one metric per name.
  void Medians(const std::map<std::string, Samples>& layer) {
    for (const auto& [name, samples] : layer) {
      Metric(name, samples.Median(), UnitOf(name), &samples);
    }
  }

  /// Prints the result line: the mode's metric list, 0 where unset.
  void PrintResult(bool per_layer) const {
    std::printf("error_rate %.6g ratio (%llu failed of %llu attempted)\n",
                attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef& m) {
      auto it = values_.find(m.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v) ? v : 0.0);
      json += first ? "" : ", ";
      json += "\"" + std::string(m.name) + "\": {\"value\": " + num +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    };
    if (per_layer) {
      for (const MetricDef& m : kPerLayer) emit(m);
    } else {
      for (const MetricDef& m : kEndToEnd) emit(m);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  static const char* UnitOf(const std::string& name) {
    for (const MetricDef& m : kPerLayer) {
      if (name == m.name) return m.unit;
    }
    return "";
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

// ---- tracing: spans around calls into the layers, kept in memory ----

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

/// Single-threaded span recorder: one clock read per span boundary.
class Tracer {
 public:
  int Begin(const char* name, int parent = -1) {
    spans_.push_back({name, parent, Now(), 0.0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) { spans_[id].end_s = Now(); }
  double Duration(int id) const { return spans_[id].duration(); }

  /// Sum of the durations of `root`'s direct children.
  double ChildTime(int root) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == root) sum += s.duration();
    }
    return sum;
  }
  /// Sum of the durations of spans named `name` below `root`.
  double TimeIn(int root, const std::string& name) const {
    double sum = 0.0;
    for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
      if (spans_[i].name == name && Below(static_cast<int>(i), root)) {
        sum += spans_[i].duration();
      }
    }
    return sum;
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                    "\"start_us\": %.1f, \"dur_us\": %.1f}%s\n",
                    i, s.parent, s.name.c_str(), s.start_s * 1e6,
                    s.duration() * 1e6, i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  double Now() const { return SecondsSince(epoch_); }
  bool Below(int id, int root) const {
    for (int p = spans_[id].parent; p >= 0; p = spans_[p].parent) {
      if (p == root) return true;
    }
    return false;
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- run configuration ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (key == "--workdir") {
      args->workdir = value;
      have_workdir = true;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && have_workload && have_workdir &&
         args->seconds > 0.0;
}

fusion::FusionOptions BatchOptions() {
  fusion::FusionOptions opts = fusion::FusionOptions::PopAccu();
  opts.num_workers = kBatchWorkers;
  opts.num_shards = kNumShards;
  return opts;
}

/// The streaming configuration of bench/bench_kb_server.cc (ACCU, one
/// worker), with the round counts pinned: the cold first publish runs
/// exactly kColdRounds rounds and every warm republish exactly kWarmRounds
/// (the epsilon never fires), so a publish does the same work for every
/// seed. Unpinned, the cold run stops anywhere from ~40 rounds to the cap
/// of 100 depending on the seed.
KbServer::Options ServeOptions() {
  KbServer::Options options;
  options.fusion.method = fusion::Method::kAccu;
  options.fusion.max_rounds = kColdRounds;
  options.fusion.convergence_epsilon = 1e-12;
  options.fusion.num_shards = kNumShards;
  options.fusion.num_workers = 1;
  options.fusion.warm_start.max_rounds = kWarmRounds;
  return options;
}

std::string DescribeOptions(const fusion::FusionOptions& o) {
  char buf[400];
  std::snprintf(
      buf, sizeof(buf),
      "%s num_workers %zu num_shards %zu max_rounds %zu epsilon %g "
      "quantile %g damping %g warm_rounds %zu warm_epsilon %g "
      "memory_budget %s",
      o.ToString().c_str(), o.num_workers, o.num_shards, o.max_rounds,
      o.convergence_epsilon, o.convergence_quantile, o.accuracy_damping,
      o.warm_start.max_rounds, o.warm_start.epsilon,
      o.memory_budget_bytes ? std::to_string(o.memory_budget_bytes).c_str()
                            : "none");
  return buf;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return in ? a + " " + b + " " + c : "unknown";
}

void PrintConfig(const Args& args) {
  std::printf("config workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("config build_type %s nproc %u loadavg %s\n", KF_E2E_BUILD_TYPE,
              std::thread::hardware_concurrency(), LoadAverage().c_str());
  if (args.workload == "serve_stream") {
    std::printf("config fusion %s\n",
                DescribeOptions(ServeOptions().fusion).c_str());
    std::printf(
        "config serve scale %g records %zu prefix 1/2 batch_interval_ms %g "
        "readers %d "
        "reader_rate_per_s %g lookups_per_request %zu absent_fraction %g "
        "key_zipf %g\n",
        kServeScale, kServeRecords, kBatchIntervalS * 1e3, kReaders,
        kReaderRate,
        kLookupsPerRequest, kAbsentFraction, kKeyZipf);
  } else {
    std::printf("config fusion %s\n", DescribeOptions(BatchOptions()).c_str());
    std::printf(
        "config batch scale %g records %zu budget_percent %zu "
        "render_threshold %g "
        "probe_requests_per_build %zu lookups_per_request %zu "
        "absent_fraction %g key_zipf %g setup_reps %d\n",
        kBatchScale, kBatchRecords, kBudgetPercent, kRenderThreshold,
        kProbeRequestsPerBuild,
        kLookupsPerRequest, kAbsentFraction, kKeyZipf, kSetupReps);
  }
}

// ---- inputs ----

/// The first `records` records of the seeded corpus at `scale` (all of
/// them when the corpus is smaller).
extract::ExtractionDataset SeededDataset(double scale, size_t records,
                                         uint64_t seed) {
  synth::SynthConfig config = synth::SynthConfig().Scaled(scale);
  config.seed = seed;
  const synth::SynthCorpus corpus = synth::GenerateCorpus(config);
  const size_t n = std::min(records, corpus.dataset.num_records());
  if (n < records) {
    std::printf("input note: seed %llu has only %zu records\n",
                static_cast<unsigned long long>(seed), n);
  }
  return extract::CloneRecordPrefix(corpus.dataset, n);
}

extract::ExtractionDataset BatchDataset(uint64_t seed) {
  return SeededDataset(kBatchScale, kBatchRecords, seed);
}

/// Lookup keys: every predicted data item of a reference KB (present),
/// then kAbsentPool keys no KB can contain.
struct ProbeKeys {
  std::vector<std::pair<std::string, std::string>> keys;
  size_t num_present = 0;
};

ProbeKeys MakeProbeKeys(const FusedKB& kb, uint64_t seed) {
  ProbeKeys out;
  // Each predicted item has exactly one winning triple.
  for (uint32_t t = 0; t < kb.num_triples(); ++t) {
    const KbVerdict v = kb.verdict(t);
    if (v.winner) out.keys.emplace_back(v.subject, v.predicate);
  }
  Rng rng(seed ^ 0x6b657973ULL);
  rng.Shuffle(&out.keys);  // Zipf rank order, independent of id order
  out.num_present = out.keys.size();
  for (size_t k = 0; k < kAbsentPool && out.num_present > 0; ++k) {
    out.keys.emplace_back("absent-" + std::to_string(rng.Next()),
                          out.keys[k % out.num_present].second);
  }
  return out;
}

/// Key indices of `requests` requests: Zipf over the present keys, with
/// kAbsentFraction drawn uniformly from the absent pool.
std::vector<uint32_t> MakeRequestStream(const ProbeKeys& keys,
                                        size_t requests, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf(keys.num_present, kKeyZipf);
  const size_t absent = keys.keys.size() - keys.num_present;
  std::vector<uint32_t> ids(requests * kLookupsPerRequest);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(
        rng.Bernoulli(kAbsentFraction)
            ? keys.num_present + rng.NextBelow(absent)
            : zipf.Sample(&rng));
  }
  return ids;
}

/// One request: kLookupsPerRequest Lookup(subject, predicate) calls.
/// True when every present key answered and every absent key did not.
bool RunRequest(const FusedKB& kb, const ProbeKeys& keys,
                const uint32_t* ids) {
  bool ok = true;
  for (size_t i = 0; i < kLookupsPerRequest; ++i) {
    const auto& key = keys.keys[ids[i]];
    const bool found = kb.Lookup(key.first, key.second).has_value();
    ok &= found == (ids[i] < keys.num_present);
  }
  return ok;
}

/// Every key against one KB (the per-generation check).
bool AllKeysAnswer(const FusedKB& kb, const ProbeKeys& keys) {
  for (size_t k = 0; k < keys.keys.size(); ++k) {
    const bool found =
        kb.Lookup(keys.keys[k].first, keys.keys[k].second).has_value();
    if (found != (k < keys.num_present)) return false;
  }
  return true;
}

/// Closed-loop lookups against a freshly built KB, one request after
/// another: latency per request from its start, and the per-lookup cost.
/// Returns the number of requests answered wrongly.
uint64_t ProbeLookups(const FusedKB& kb, const ProbeKeys& keys,
                      const std::vector<uint32_t>& stream, Samples* latency_us,
                      Samples* lookup_ns) {
  uint64_t failed = 0;
  const size_t requests = stream.size() / kLookupsPerRequest;
  for (size_t r = 0; r < requests; ++r) {
    const auto t0 = Clock::now();
    failed += !RunRequest(kb, keys, &stream[r * kLookupsPerRequest]);
    const double s = SecondsSince(t0);
    latency_us->Add(s * 1e6);
    lookup_ns->Add(s * 1e9 / kLookupsPerRequest);
  }
  return failed;
}

// ---- checks ----

bool SameResult(const fusion::FusionResult& a, const fusion::FusionResult& b) {
  return a.num_rounds == b.num_rounds &&
         a.num_provenances == b.num_provenances &&
         a.num_unevaluated_provenances == b.num_unevaluated_provenances &&
         a.has_probability == b.has_probability &&
         a.from_fallback == b.from_fallback &&
         a.probability.size() == b.probability.size() &&
         (a.probability.empty() ||
          std::memcmp(a.probability.data(), b.probability.data(),
                      a.probability.size() * sizeof(double)) == 0);
}

/// FusedKB::AboveThreshold rendered as subject/predicate/object/probability
/// TSV, in memory (the fuse_tsv output).
std::string RenderAbove(const FusedKB& kb, double threshold) {
  std::string out;
  char num[32];
  for (const KbVerdict& v : kb.AboveThreshold(threshold)) {
    out.append(v.subject).push_back('\t');
    out.append(v.predicate).push_back('\t');
    out.append(v.object).push_back('\t');
    const auto res = std::to_chars(num, num + sizeof(num), v.probability);
    out.append(num, res.ptr).push_back('\n');
  }
  return out;
}

size_t TotalSpillableBytes(const fusion::ClaimGraph& graph) {
  size_t total = 0;
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    total += graph.shard(s).SpillableBytes();
  }
  return total;
}

/// max / mean of the last Stage I's per-shard sweep times.
double ShardSkew(const fusion::FusionEngine& engine) {
  const std::vector<uint32_t>& micros = engine.shard_sweep_micros();
  double max = 0.0, sum = 0.0;
  for (uint32_t m : micros) {
    max = std::max<double>(max, m);
    sum += m;
  }
  return sum > 0.0 ? max * static_cast<double>(micros.size()) / sum : 0.0;
}

// ---- the fusion layer driven call by call ----

/// Runs the engine the way FusionEngine::Run does (constructor, Prepare,
/// then StageI/StageII rounds until the epsilon check), one span per
/// public call under `parent`. The result is what Session::Fuse returns
/// for the same dataset and options.
std::unique_ptr<fusion::FusionEngine> TracedEngineFuse(
    const extract::ExtractionDataset& dataset,
    const fusion::FusionOptions& options, Tracer* tracer, int parent,
    fusion::FusionResult* result) {
  std::unique_ptr<fusion::FusionEngine> engine;
  {
    ScopedSpan span(tracer, "fusion.graph_build", parent);
    engine = std::make_unique<fusion::FusionEngine>(dataset, options);
  }
  {
    ScopedSpan span(tracer, "fusion.prepare", parent);
    *result = engine->Prepare();
  }
  const bool is_vote = options.method == fusion::Method::kVote;
  const size_t max_rounds = is_vote ? 1 : options.max_rounds;
  for (size_t round = 1; round <= max_rounds; ++round) {
    const int r = tracer->Begin("fusion.round", parent);
    {
      ScopedSpan span(tracer, "fusion.stage1", r);
      engine->StageI(round, result);
    }
    result->num_rounds = round;
    double delta = 0.0;
    if (!is_vote) {
      ScopedSpan span(tracer, "fusion.stage2", r);
      delta = engine->StageII(*result);
    }
    tracer->End(r);
    if (is_vote || (round > 1 && delta < options.convergence_epsilon)) break;
  }
  result->num_unevaluated_provenances = 0;
  for (uint8_t e : engine->provenance_evaluated()) {
    if (!e) ++result->num_unevaluated_provenances;
  }
  return engine;
}

/// The fusion.* per-layer samples of one traced engine run under `root`.
void AddFusionLayer(const Tracer& tracer, int root,
                    const fusion::FusionEngine& engine,
                    const fusion::FusionResult& result,
                    std::map<std::string, Samples>* layer) {
  (*layer)["fusion.graph_build_s"].Add(tracer.TimeIn(root, "fusion.graph_build"));
  (*layer)["fusion.prepare_s"].Add(tracer.TimeIn(root, "fusion.prepare"));
  (*layer)["fusion.stage1_s"].Add(tracer.TimeIn(root, "fusion.stage1"));
  (*layer)["fusion.stage2_s"].Add(tracer.TimeIn(root, "fusion.stage2"));
  (*layer)["fusion.rounds"].Add(static_cast<double>(result.num_rounds));
  (*layer)["fusion.claims"].Add(static_cast<double>(engine.num_claims()));
  (*layer)["fusion.shard_skew"].Add(ShardSkew(engine));
}

/// Fuse time of a traced engine run: constructor + Prepare + rounds.
double EngineFuseTime(const Tracer& tracer, int root) {
  return tracer.TimeIn(root, "fusion.graph_build") +
         tracer.TimeIn(root, "fusion.prepare") +
         tracer.TimeIn(root, "fusion.round");
}

// ---- batch workloads ----

struct BuildOutput {
  bool ok = false;
  double wall_s = 0.0;
  FusedKB kb;
  fusion::FusionResult result;
  std::string rendered;  // batch_tsv only
  spill::SpillStats spill;  // batch_bin_budget only
};

/// Shared measured phase of the batch workloads: closed-loop cold builds
/// for --seconds (traced builds interleaved with untraced ones under
/// --trace 1), each checked against the setup reference and followed by
/// the lookup probe.
template <typename Build, typename TracedBuild>
void RunBatchLoop(const Args& args, size_t records, const BuildOutput& ref,
                  const ProbeKeys& keys, double setup_s, Build build,
                  TracedBuild traced_build, Report* report) {
  const std::vector<uint32_t> stream =
      MakeRequestStream(keys, kProbeRequestsPerBuild, args.seed + 1);
  report->Op(AllKeysAnswer(ref.kb, keys), "reference KB answers every key");

  Samples wall_s, wall_ms, traced_wall_s, lookup_us, lookup_ns, coverage;
  Samples peak_mb;  // per untraced build, probe included
  std::map<std::string, Samples> layer;
  const auto start = Clock::now();
  int builds = 0, traced = 0;
  while (SecondsSince(start) < args.seconds || builds < kMinBuilds ||
         (args.trace && traced < kMinBuilds)) {
    const bool run_traced = args.trace && traced < builds;
    PeakRssTracker peak;  // read for untraced builds only
    BuildOutput out = run_traced ? traced_build(&layer, &coverage)
                                 : build();
    ++(run_traced ? traced : builds);  // failed builds count too
    if (!report->Op(out.ok, "build")) continue;
    report->Op(out.kb == ref.kb, "build FusedKB == reference FusedKB");
    report->Op(out.rendered == ref.rendered, "rendered KB == reference");
    report->Op(SameResult(out.result, ref.result),
               "FusionResult bit-identical to the reference");
    report->Count(kProbeRequestsPerBuild,
                  ProbeLookups(out.kb, keys, stream, &lookup_us, &lookup_ns),
                  "lookup probe requests answered wrongly");
    if (run_traced) {
      traced_wall_s.Add(out.wall_s);
    } else {
      wall_s.Add(out.wall_s);
      wall_ms.Add(out.wall_s * 1e3);
      peak.Sample();
      peak_mb.Add(MiB(peak.PeakBytes()));
    }
  }

  std::printf("measured %d untraced and %d traced builds in %.2f s\n", builds,
              traced, SecondsSince(start));
  std::printf("lookup latency_us %s\n", lookup_us.Distribution().c_str());
  if (!args.trace) {
    report->Metric("build_records_per_s",
                   static_cast<double>(records) / wall_s.Median(), "records/s");
    // A batch build's inputs are all due when it starts: freshness is the
    // build latency.
    report->Metric("freshness_p50_ms", wall_ms.Median(), "ms", &wall_ms);
    report->Metric("freshness_p90_ms", wall_ms.Quantile(0.9), "ms");
    report->Metric("lookup_p50_us", lookup_us.Median(), "us", &lookup_us);
    report->Metric("lookup_p90_us", lookup_us.Quantile(0.9), "us");
    report->Metric("peak_rss_mb", peak_mb.Median(), "MiB", &peak_mb);
    report->Metric("setup_s", setup_s, "s");
    return;
  }
  report->Medians(layer);
  report->Metric("kf.lookup_ns", lookup_ns.Median(), "ns", &lookup_ns);
  report->Metric("kf.request_p99_us", lookup_us.Quantile(0.99), "us");
  report->Metric("trace.coverage", coverage.Median(), "ratio", &coverage);
  report->Metric("trace.overhead_ratio",
                 traced_wall_s.Median() / wall_s.Median(), "ratio");
  // Every traced build must be explained by its spans.
  report->Op(coverage.Quantile(0.0) >= 0.95,
             "trace.coverage >= 0.95 on every traced build");
}

void RunBatchTsv(const Args& args, Tracer* tracer, Report* report) {
  const fusion::FusionOptions opts = BatchOptions();
  const char* method = fusion::Registry::NameOf(opts.method);

  // Input: the seeded corpus rendered once to extraction TSV text.
  std::string tsv;
  size_t records = 0;
  {
    const extract::ExtractionDataset dataset = BatchDataset(args.seed);
    tsv = synth::RenderExtractionsTsv(dataset);
    records = dataset.num_records();
    std::printf("input records %zu triples %zu items %zu tsv_bytes %zu\n",
                records, dataset.num_triples(), dataset.num_items(),
                tsv.size());
  }

  // ReadExtractionsTsv -> Session::Borrow + Fuse -> Snapshot(FromCorpus)
  // -> AboveThreshold rendered to TSV.
  auto build = [&]() {
    BuildOutput out;
    const auto t0 = Clock::now();
    Result<extract::TsvCorpus> corpus = extract::ReadExtractionsTsv(tsv);
    if (!corpus.ok()) return out;
    Session session = Session::Borrow(corpus->dataset);
    Result<fusion::FusionResult> fused = session.Fuse(opts);
    if (!fused.ok()) return out;
    Result<FusedKB> kb =
        session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
    if (!kb.ok()) return out;
    out.rendered = RenderAbove(*kb, kRenderThreshold);
    out.wall_s = SecondsSince(t0);
    out.kb = std::move(kb).value();
    out.result = std::move(fused).value();
    out.ok = true;
    return out;
  };

  // The same build with the Session call replaced by the engine's public
  // calls, one span each.
  auto traced_build = [&](std::map<std::string, Samples>* layer,
                          Samples* coverage) {
    BuildOutput out;
    const auto t0 = Clock::now();
    const int root = tracer->Begin("build.batch_tsv");
    std::optional<Result<extract::TsvCorpus>> corpus;
    {
      ScopedSpan span(tracer, "extract.read_tsv", root);
      corpus.emplace(extract::ReadExtractionsTsv(tsv));
    }
    if (!corpus->ok()) return out;
    const double rss_load = MiB(CurrentRssBytes());
    std::unique_ptr<fusion::FusionEngine> engine =
        TracedEngineFuse((*corpus)->dataset, opts, tracer, root, &out.result);
    const double rss_fuse = MiB(CurrentRssBytes());
    std::optional<Result<FusedKB>> kb;
    {
      ScopedSpan span(tracer, "kf.snapshot", root);
      kb.emplace(FusedKB::Snapshot((*corpus)->dataset, *engine, out.result,
                                   method,
                                   SnapshotNaming::FromCorpus(**corpus)));
    }
    if (!kb->ok()) return out;
    const double rss_snapshot = MiB(CurrentRssBytes());
    {
      ScopedSpan span(tracer, "kf.query", root);
      out.rendered = RenderAbove(**kb, kRenderThreshold);
    }
    tracer->End(root);
    out.wall_s = SecondsSince(t0);
    out.kb = std::move(*kb).value();
    out.ok = true;

    const double read_s = tracer->TimeIn(root, "extract.read_tsv");
    (*layer)["extract.read_tsv_s"].Add(read_s);
    (*layer)["extract.tsv_mb_per_s"].Add(MiB(tsv.size()) / read_s);
    AddFusionLayer(*tracer, root, *engine, out.result, layer);
    (*layer)["kf.fuse_s"].Add(EngineFuseTime(*tracer, root));
    (*layer)["kf.snapshot_s"].Add(tracer->TimeIn(root, "kf.snapshot"));
    (*layer)["kf.query_s"].Add(tracer->TimeIn(root, "kf.query"));
    (*layer)["rss.load_mb"].Add(rss_load);
    (*layer)["rss.fuse_mb"].Add(rss_fuse);
    (*layer)["rss.snapshot_mb"].Add(rss_snapshot);
    coverage->Add(tracer->ChildTime(root) / tracer->Duration(root));
    return out;
  };

  // Setup: the reference build, kSetupReps times (all must agree).
  Samples setup_s;
  BuildOutput ref;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    BuildOutput out = build();
    report->Op(out.ok, "reference build");
    setup_s.Add(out.wall_s);
    if (rep == 0) {
      ref = std::move(out);
    } else {
      report->Op(out.kb == ref.kb && out.rendered == ref.rendered,
                 "reference builds agree");
    }
  }
  if (!ref.ok) return;
  std::printf("setup reference: %zu rounds, %zu triples, %zu rendered bytes; "
              "%s s\n",
              ref.result.num_rounds, ref.kb.num_triples(), ref.rendered.size(),
              setup_s.Summary().c_str());
  const ProbeKeys keys = MakeProbeKeys(ref.kb, args.seed);
  std::printf("input probe_keys present %zu absent %zu\n", keys.num_present,
              keys.keys.size() - keys.num_present);
  RunBatchLoop(args, records, ref, keys, setup_s.Median(), build, traced_build,
               report);
}

void RunBatchBinBudget(const Args& args, const std::string& run_dir,
                       Tracer* tracer, Report* report) {
  const fusion::FusionOptions resident = BatchOptions();
  const std::string image = run_dir + "/corpus.kfc";
  const std::string exported = run_dir + "/fused.kfb";

  // Input: the same corpus, parsed once into the TsvCorpus the image is
  // written from.
  std::optional<extract::TsvCorpus> input;
  size_t records = 0;
  {
    const extract::ExtractionDataset dataset = BatchDataset(args.seed);
    const std::string tsv = synth::RenderExtractionsTsv(dataset);
    Result<extract::TsvCorpus> parsed = extract::ReadExtractionsTsv(tsv);
    if (!report->Op(parsed.ok(), "parse generated TSV")) return;
    input.emplace(std::move(parsed).value());
    records = dataset.num_records();
    std::printf("input records %zu triples %zu items %zu tsv_bytes %zu\n",
                records, dataset.num_triples(), dataset.num_items(),
                tsv.size());
  }

  // Setup, kSetupReps times: write the image, size the budget off a
  // resident graph build, and compute the unbudgeted reference.
  Samples setup_s;
  BuildOutput ref;
  size_t spillable = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    bool ok = store::WriteCorpusFile(*input, image).ok();
    {
      fusion::FusionEngine probe(input->dataset, resident);
      probe.Prepare();
      spillable = TotalSpillableBytes(probe.graph());
    }
    Session session = Session::Borrow(input->dataset);
    Result<fusion::FusionResult> fused = session.Fuse(resident);
    Result<FusedKB> kb =
        fused.ok() ? session.Snapshot(SnapshotNaming::FromCorpus(*input))
                   : Result<FusedKB>(fused.status());
    setup_s.Add(SecondsSince(t0));
    ok &= kb.ok();
    if (!report->Op(ok, "setup (image write, sizing build, reference)")) {
      continue;
    }
    if (!ref.ok) {
      ref.ok = true;
      ref.kb = std::move(kb).value();
      ref.result = std::move(fused).value();
    } else {
      report->Op(*kb == ref.kb, "reference builds agree");
    }
  }
  if (!ref.ok) return;
  const size_t budget = std::max<size_t>(1, spillable * kBudgetPercent / 100);
  std::printf(
      "input bin_bytes %llu spillable_bytes %zu budget_bytes %zu\n",
      static_cast<unsigned long long>(fs::file_size(image)), spillable,
      budget);
  std::printf("setup reference: %zu rounds, %zu triples; %s s\n",
              ref.result.num_rounds, ref.kb.num_triples(),
              setup_s.Summary().c_str());

  fusion::FusionOptions budgeted = resident;
  budgeted.memory_budget_bytes = budget;
  int spill_dirs = 0;

  // LoadCorpusFile -> budgeted Session::Fuse in a fresh spill dir ->
  // Session::Snapshot -> FusedKB::ExportBinary. `spans` (traced builds)
  // adds one span per call.
  auto run_build = [&](Tracer* spans, int root,
                       std::map<std::string, Samples>* layer) {
    BuildOutput out;
    fusion::FusionOptions opts = budgeted;
    opts.spill_dir = run_dir + "/spill-" + std::to_string(spill_dirs++);
    auto begin = [&](const char* name) {
      return spans ? spans->Begin(name, root) : -1;
    };
    auto end = [&](int id) {
      if (spans) spans->End(id);
    };
    const auto t0 = Clock::now();
    int span = begin("store.load_corpus");
    Result<extract::TsvCorpus> corpus = store::LoadCorpusFile(image);
    end(span);
    if (!corpus.ok()) return out;
    const double rss_load = MiB(CurrentRssBytes());
    Session session = Session::Borrow(corpus->dataset);
    span = begin("spill.fuse");
    Result<fusion::FusionResult> fused = session.Fuse(opts);
    end(span);
    if (!fused.ok()) return out;
    const double rss_fuse = MiB(CurrentRssBytes());
    span = begin("kf.snapshot");
    Result<FusedKB> kb = session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
    end(span);
    if (!kb.ok()) return out;
    const double rss_snapshot = MiB(CurrentRssBytes());
    span = begin("store.kb_export");
    const Status exported_ok = kb->ExportBinary(exported);
    end(span);
    // The build ends here; tearing down the session and its spill files
    // below is outside it, traced or not.
    out.wall_s = SecondsSince(t0);
    if (spans) spans->End(root);
    if (!exported_ok.ok()) return out;
    out.kb = std::move(kb).value();
    out.result = std::move(fused).value();
    if (const spill::SpillStats* stats = session.spill_stats()) {
      out.spill = *stats;
    }
    // The budget must actually have engaged the spill layer.
    out.ok = session.spill_stats() != nullptr && out.spill.maps_opened > 0 &&
             !out.spill.resident_fallback;
    if (layer != nullptr) {
      (*layer)["rss.load_mb"].Add(rss_load);
      (*layer)["rss.fuse_mb"].Add(rss_fuse);
      (*layer)["rss.snapshot_mb"].Add(rss_snapshot);
    }
    return out;
  };
  auto cleanup_spill = [&]() {
    std::error_code ec;
    fs::remove_all(run_dir + "/spill-" + std::to_string(spill_dirs - 1), ec);
  };

  auto build = [&]() {
    BuildOutput out = run_build(nullptr, -1, nullptr);
    cleanup_spill();
    return out;
  };

  auto traced_build = [&](std::map<std::string, Samples>* layer,
                          Samples* coverage) {
    const int root = tracer->Begin("build.batch_bin_budget");
    BuildOutput out = run_build(tracer, root, layer);
    cleanup_spill();
    if (!out.ok) return out;
    coverage->Add(tracer->ChildTime(root) / tracer->Duration(root));

    const double fuse_s = tracer->TimeIn(root, "spill.fuse");
    (*layer)["store.load_corpus_s"].Add(tracer->TimeIn(root, "store.load_corpus"));
    (*layer)["store.kb_export_s"].Add(tracer->TimeIn(root, "store.kb_export"));
    (*layer)["store.kb_bytes"].Add(static_cast<double>(fs::file_size(exported)));
    (*layer)["spill.fuse_s"].Add(fuse_s);
    (*layer)["kf.fuse_s"].Add(fuse_s);
    (*layer)["kf.snapshot_s"].Add(tracer->TimeIn(root, "kf.snapshot"));
    (*layer)["spill.bytes_written"].Add(static_cast<double>(out.spill.bytes_written));
    (*layer)["spill.files_written"].Add(static_cast<double>(out.spill.files_written));
    (*layer)["spill.maps_opened"].Add(static_cast<double>(out.spill.maps_opened));
    (*layer)["spill.high_water_mb"].Add(MiB(out.spill.accounted_high_water));
    (*layer)["spill.budget_mb"].Add(MiB(budget));
    (*layer)["spill.retries"].Add(static_cast<double>(out.spill.transient_retries));

    // Outside the build: the exported image reads back equal, and the
    // resident engine, driven call by call on the same input, gives the
    // bit-identical result (the spill determinism contract) and the
    // fusion-layer breakdown.
    Result<FusedKB> back = FusedKB::ImportBinary(exported);
    report->Op(back.ok() && *back == out.kb, "exported image reads back equal");
    Result<extract::TsvCorpus> corpus = store::LoadCorpusFile(image);
    if (report->Op(corpus.ok(), "reload image")) {
      const int rroot = tracer->Begin("fuse.resident");
      fusion::FusionResult result;
      std::unique_ptr<fusion::FusionEngine> engine = TracedEngineFuse(
          corpus->dataset, resident, tracer, rroot, &result);
      tracer->End(rroot);
      report->Op(SameResult(result, out.result),
                 "budgeted FusionResult bit-identical to resident engine run");
      AddFusionLayer(*tracer, rroot, *engine, result, layer);
      (*layer)["spill.overhead_ratio"].Add(fuse_s /
                                           EngineFuseTime(*tracer, rroot));
    }
    return out;
  };

  const ProbeKeys keys = MakeProbeKeys(ref.kb, args.seed);
  std::printf("input probe_keys present %zu absent %zu\n", keys.num_present,
              keys.keys.size() - keys.num_present);
  RunBatchLoop(args, records, ref, keys, setup_s.Median(), build, traced_build,
               report);
}

// ---- serve_stream ----

struct ReaderOutput {
  Samples latency_us;  // from the request's due time
  Samples late_us;     // generator lateness
  Samples acquire_us;  // traced only
  Samples lookup_ns;   // traced only
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t started_before_stop = 0;
  uint64_t generations = 0;
  bool monotonic = true;
};

/// Sleeps until shortly before `due`, then spins, so a request starts on
/// time without the timer's wake-up delay.
void WaitUntil(Clock::time_point due) {
  if (Clock::now() < due - kSpinWindow) {
    std::this_thread::sleep_until(due - kSpinWindow);
  }
  while (Clock::now() < due) {
  }
}

/// One open-loop reader: a request every 1/kReaderRate s from `start`
/// until the writer publishes `stop_ns` (relative to start).
void ReaderLoop(const KbServer& server, const ProbeKeys& keys,
                const std::vector<uint32_t>& stream, Clock::time_point start,
                const std::atomic<int64_t>& stop_ns, bool trace,
                ReaderOutput* out) {
  KbServer::Reader reader(server);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kReaderRate));
  const size_t requests = stream.size() / kLookupsPerRequest;
  uint64_t last_seqno = 0;
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point due = start + period * static_cast<int64_t>(i);
    const int64_t stop = stop_ns.load(std::memory_order_acquire);
    const int64_t due_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(due - start)
            .count();
    if (stop >= 0 && due_ns >= stop) break;
    WaitUntil(due);
    const auto t0 = Clock::now();
    const KbSnapshotRef& snap = reader.Acquire();
    const auto t1 = trace ? Clock::now() : t0;
    bool ok = snap != nullptr;
    if (ok) {
      const uint64_t seqno = reader.seqno();
      out->monotonic &= seqno >= last_seqno;
      if (seqno != last_seqno) ++out->generations;
      last_seqno = seqno;
      ok = RunRequest(snap->kb(), keys,
                      &stream[(i % requests) * kLookupsPerRequest]);
    }
    const auto t2 = Clock::now();
    ++out->requests;
    if (!ok) ++out->failed;
    out->late_us.Add(SecondsBetween(due, t0) * 1e6);
    out->latency_us.Add(SecondsBetween(due, t2) * 1e6);
    if (trace) {
      out->acquire_us.Add(SecondsBetween(t0, t1) * 1e6);
      out->lookup_ns.Add(SecondsBetween(t1, t2) * 1e9 / kLookupsPerRequest);
    }
    const int64_t started_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - start)
            .count();
    const int64_t stop_now = stop_ns.load(std::memory_order_acquire);
    if (stop_now < 0 || started_ns < stop_now) ++out->started_before_stop;
  }
}

/// A server over the first half of `src` plus the re-interned second half.
struct ServeSetup {
  std::unique_ptr<KbServer> server;
  std::vector<extract::ExtractionRecord> tail;
};

void RunServeStream(const Args& args, Tracer* tracer, Report* report) {
  const KbServer::Options options = ServeOptions();
  const extract::ExtractionDataset src =
      SeededDataset(kServeScale, kServeRecords, args.seed);
  const size_t base = src.num_records() / 2;

  // Setup, kSetupReps times: construct the server and publish generation
  // 1 cold. Dataset cloning and re-interning are input generation.
  Samples setup_s;
  ServeSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = ServeSetup();
    extract::ExtractionDataset prefix = extract::CloneRecordPrefix(src, base);
    setup.tail = extract::ReinternTail(src, base, &prefix);
    const auto t0 = Clock::now();
    setup.server = std::make_unique<KbServer>(std::move(prefix), options);
    Result<KbSnapshotStats> first = setup.server->Publish();
    setup_s.Add(SecondsSince(t0));
    if (!report->Op(first.ok(), "cold first Publish")) return;
  }
  KbServer& server = *setup.server;
  // Released before the measured phase, so readers tear it down as usual.
  KbSnapshotRef gen1 = server.Acquire();
  const ProbeKeys keys = MakeProbeKeys(gen1->kb(), args.seed);
  report->Op(AllKeysAnswer(gen1->kb(), keys), "generation 1 answers every key");

  // The tail as fixed-size batches, one due every kBatchIntervalS.
  const size_t num_batches = std::max<size_t>(
      1, static_cast<size_t>(std::llround(args.seconds / kBatchIntervalS)));
  const size_t batch_size = (setup.tail.size() + num_batches - 1) / num_batches;
  std::vector<std::vector<extract::ExtractionRecord>> batches;
  for (size_t i = 0; i < setup.tail.size(); i += batch_size) {
    batches.emplace_back(
        setup.tail.begin() + static_cast<ptrdiff_t>(i),
        setup.tail.begin() + static_cast<ptrdiff_t>(
                                 std::min(i + batch_size, setup.tail.size())));
  }
  const size_t reader_requests = static_cast<size_t>(
      (args.seconds + 5.0) * kReaderRate);
  std::vector<std::vector<uint32_t>> streams;
  for (int r = 0; r < kReaders; ++r) {
    streams.push_back(MakeRequestStream(keys, reader_requests,
                                        args.seed * 31 + 7 + r));
  }
  std::printf(
      "input records %zu prefix_records %zu tail_records %zu batches %zu "
      "batch_records %zu gen1_triples %zu probe_keys present %zu absent %zu\n",
      src.num_records(), base, setup.tail.size(), batches.size(), batch_size,
      gen1->kb().num_triples(), keys.num_present,
      keys.keys.size() - keys.num_present);
  std::printf("offered batch_rate_per_s %g records_per_s %g reader_rate_per_s "
              "%g x %d\n",
              1.0 / kBatchIntervalS, batch_size / kBatchIntervalS, kReaderRate,
              kReaders);

  std::map<std::string, Samples> layer;
  if (args.trace) {
    // Generation 1 rebuilt call by call from an identical dataset: the
    // fusion-layer breakdown of the cold publish in setup.
    extract::ExtractionDataset prefix = extract::CloneRecordPrefix(src, base);
    extract::ReinternTail(src, base, &prefix);
    layer["rss.load_mb"].Add(MiB(CurrentRssBytes()));
    const auto t0 = Clock::now();
    const int root = tracer->Begin("build.serve_gen1");
    fusion::FusionResult result;
    std::unique_ptr<fusion::FusionEngine> engine =
        TracedEngineFuse(prefix, options.fusion, tracer, root, &result);
    const double rss_fuse = MiB(CurrentRssBytes());
    std::optional<Result<FusedKB>> kb;
    {
      ScopedSpan span(tracer, "kf.snapshot", root);
      kb.emplace(FusedKB::Snapshot(prefix, *engine, result,
                                   fusion::Registry::NameOf(options.fusion.method),
                                   options.naming));
    }
    tracer->End(root);
    const double wall_s = SecondsSince(t0);
    report->Op(kb->ok() && **kb == gen1->kb(),
               "call-by-call generation 1 == published generation 1");
    AddFusionLayer(*tracer, root, *engine, result, &layer);
    layer["kf.fuse_s"].Add(EngineFuseTime(*tracer, root));
    layer["kf.snapshot_s"].Add(tracer->TimeIn(root, "kf.snapshot"));
    layer["rss.fuse_mb"].Add(rss_fuse);
    layer["rss.snapshot_mb"].Add(MiB(CurrentRssBytes()));
    const double coverage = tracer->ChildTime(root) / tracer->Duration(root);
    report->Metric("trace.coverage", coverage, "ratio");
    report->Op(coverage >= 0.95, "trace.coverage >= 0.95");
    report->Metric("trace.overhead_ratio", wall_s / setup_s.Median(), "ratio");
  }
  const size_t gen1_rounds = gen1->stats().num_rounds;
  gen1.reset();

  std::printf("setup cold publish %s s, %zu rounds\n",
              setup_s.Summary().c_str(), gen1_rounds);

  // Measured phase: the writer (this thread) appends every due batch and
  // publishes; kReaders open-loop readers query meanwhile.
  PeakRssTracker peak;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::atomic<int64_t> stop_ns{-1};
  std::vector<ReaderOutput> readers(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, std::cref(server), std::cref(keys),
                         std::cref(streams[r]), start, std::cref(stop_ns),
                         args.trace, &readers[r]);
  }
  Samples freshness_ms, publish_ms, append_ms, publish_rounds, records_per_s;
  size_t backlog_max = 0;
  auto due = [&](size_t b) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kBatchIntervalS * b));
  };
  size_t next = 0;
  while (next < batches.size()) {
    std::this_thread::sleep_until(due(next));
    const auto now = Clock::now();
    const size_t first = next;
    while (next < batches.size() && due(next) <= now) {
      const int span = args.trace ? tracer->Begin("kf.append") : -1;
      const auto a0 = Clock::now();
      report->Op(server.Append(batches[next]).ok(), "Append");
      append_ms.Add(SecondsSince(a0) * 1e3);
      if (args.trace) tracer->End(span);
      ++next;
    }
    backlog_max = std::max(backlog_max, next - first);
    const int span = args.trace ? tracer->Begin("kf.publish") : -1;
    const auto p0 = Clock::now();
    Result<KbSnapshotStats> published = server.Publish();
    const auto p1 = Clock::now();
    if (args.trace) tracer->End(span);
    if (!report->Op(published.ok(), "Publish")) continue;
    const double publish_s = SecondsBetween(p0, p1);
    publish_ms.Add(publish_s * 1e3);
    publish_rounds.Add(static_cast<double>(published->num_rounds));
    records_per_s.Add(static_cast<double>(published->num_records) / publish_s);
    for (size_t b = first; b < next; ++b) {
      freshness_ms.Add(SecondsBetween(due(b), p1) * 1e3);
    }
    {
      const KbSnapshotRef snap = server.Acquire();
      report->Op(snap && snap->stats().seqno == published->seqno &&
                     AllKeysAnswer(snap->kb(), keys),
                 "new generation answers every key");
    }
    peak.Sample();
  }
  const auto stop = Clock::now();
  stop_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count(),
      std::memory_order_release);
  for (std::thread& t : threads) t.join();
  peak.Sample();
  const double measured_s = SecondsBetween(start, stop);

  Samples latency_us, late_us, acquire_us, lookup_ns;
  uint64_t requests = 0, started_before = 0, generations = 0;
  for (const ReaderOutput& r : readers) {
    report->Count(r.requests, r.failed, "reader requests answered wrongly");
    report->Op(r.monotonic, "reader seqnos never decrease");
    requests += r.requests;
    started_before += r.started_before_stop;
    generations += r.generations;
    latency_us.Append(r.latency_us);
    late_us.Append(r.late_us);
    acquire_us.Append(r.acquire_us);
    lookup_ns.Append(r.lookup_ns);
  }
  const KbServer::ServerStats stats = server.stats();
  std::printf("measured %.2f s: %zu publishes, %llu requests\n", measured_s,
              publish_ms.size(), static_cast<unsigned long long>(requests));
  // Every request due before the stop was sent; the ones sent after it
  // ran late by more than the rest of the run.
  const double achieved =
      requests ? static_cast<double>(started_before) / requests : 0.0;
  std::printf("lookup latency_us %s\n", latency_us.Distribution().c_str());
  if (args.trace) {
    std::printf("acquire_us %s\n", acquire_us.Distribution().c_str());
  }
  std::printf("loadgen late_us %s; achieved_ratio %.4f; ingest_backlog_max "
              "%zu; writer_busy %.3f\n",
              late_us.Summary().c_str(), achieved, backlog_max,
              (publish_ms.Mean() * publish_ms.size() +
               append_ms.Mean() * append_ms.size()) / 1e3 / measured_s);

  // Outside the measured phase: the final generation covers every record
  // and stays within the warm-start tolerance of a cold Fuse over all of
  // them. The has-probability masks must match exactly; probabilities may
  // drift by the warm start's convergence slack (mean bounded here).
  report->Op(stats.publish_failures == 0, "no Publish failed");
  report->Op(stats.current.num_records == src.num_records(),
             "final generation covers every record");
  double drift = 1.0;
  {
    Session cold(extract::CloneRecordPrefix(src, src.num_records()));
    Result<fusion::FusionResult> fused = cold.Fuse(options.fusion);
    Result<FusedKB> cold_kb = fused.ok() ? cold.Snapshot(options.naming)
                                         : Result<FusedKB>(fused.status());
    const KbSnapshotRef last = server.Acquire();
    bool masks = cold_kb.ok() &&
                 cold_kb->num_triples() == last->kb().num_triples();
    double sum = 0.0, max = 0.0;
    size_t predicted = 0, over = 0;
    for (uint32_t t = 0; masks && t < cold_kb->num_triples(); ++t) {
      const KbVerdict v = cold_kb->verdict(t);
      const std::optional<KbVerdict> w =
          last->kb().Verdict(v.subject, v.predicate, v.object);
      masks = w && w->has_probability == v.has_probability;
      if (masks && v.has_probability) {
        const double d = std::fabs(v.probability - w->probability);
        sum += d;
        max = std::max(max, d);
        over += d > kWarmDriftLimit;
        ++predicted;
      }
    }
    report->Op(masks, "final generation's prediction mask == cold Fuse's");
    if (masks && predicted > 0) drift = sum / static_cast<double>(predicted);
    std::printf("final generation vs cold Fuse: mean |dp| %.5f (limit %g), "
                "max %.4g, %zu of %zu predicted triples beyond %g\n",
                drift, kWarmDriftLimit, max, over, predicted, kWarmDriftLimit);
    report->Op(drift <= kWarmDriftLimit, "warm drift within limit");
  }

  if (!args.trace) {
    report->Metric("build_records_per_s", records_per_s.Median(), "records/s",
                   &records_per_s);
    report->Metric("lookup_p50_us", latency_us.Median(), "us", &latency_us);
    report->Metric("lookup_p90_us", latency_us.Quantile(0.9), "us");
    report->Metric("freshness_p50_ms", freshness_ms.Median(), "ms",
                   &freshness_ms);
    report->Metric("freshness_p90_ms", freshness_ms.Quantile(0.9), "ms");
    report->Metric("peak_rss_mb", MiB(peak.PeakBytes()), "MiB");
    report->Metric("setup_s", setup_s.Median(), "s", &setup_s);
    return;
  }
  report->Medians(layer);
  report->Metric("kf.append_ms", append_ms.Median(), "ms", &append_ms);
  report->Metric("kf.publish_p50_ms", publish_ms.Median(), "ms", &publish_ms);
  report->Metric("kf.publish_p90_ms", publish_ms.Quantile(0.9), "ms");
  report->Metric("kf.publish_rounds", publish_rounds.Median(), "count",
                 &publish_rounds);
  report->Metric("kf.publish_failures",
                 static_cast<double>(stats.publish_failures), "count");
  report->Metric("kf.acquire_us", acquire_us.Quantile(0.99), "us",
                 &acquire_us);
  report->Metric("kf.lookup_ns", lookup_ns.Median(), "ns", &lookup_ns);
  report->Metric("kf.request_p99_us", latency_us.Quantile(0.99), "us");
  report->Metric("kf.generations_seen",
                 static_cast<double>(generations) / kReaders, "count");
  report->Metric("kf.warm_drift", drift, "ratio");
  report->Metric("loadgen.late_p99_us", late_us.Quantile(0.99), "us",
                 &late_us);
  report->Metric("loadgen.achieved_ratio", achieved, "ratio");
  report->Metric("loadgen.ingest_backlog_max",
                 static_cast<double>(backlog_max), "count");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kf_e2e --workload batch_tsv|batch_bin_budget|"
                 "serve_stream --seed N --seconds S --trace 0|1 --workdir "
                 "DIR\n");
    return 2;
  }
#ifdef NDEBUG
  constexpr bool kAssertions = false;
#else
  constexpr bool kAssertions = true;
#endif
  if (kAssertions || std::strcmp(KF_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to run: kf_e2e was built as '%s'%s; measure only "
                 "a Release build\n",
                 KF_E2E_BUILD_TYPE, kAssertions ? " with assertions on" : "");
    return 2;
  }
  if (args.workload != "batch_tsv" && args.workload != "batch_bin_budget" &&
      args.workload != "serve_stream") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintConfig(args);

  const std::string run_dir =
      args.workdir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  Report report;
  Tracer tracer;
  if (args.workload == "batch_tsv") {
    RunBatchTsv(args, &tracer, &report);
  } else if (args.workload == "batch_bin_budget") {
    RunBatchBinBudget(args, run_dir, &tracer, &report);
  } else {
    RunServeStream(args, &tracer, &report);
  }
  fs::remove_all(run_dir, ec);
  if (args.trace) {
    const std::string path = args.workdir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (tracer.WriteJson(path)) std::printf("trace spans written to %s\n", path.c_str());
  }
  report.PrintResult(args.trace);
  return 0;
}
