// Storage-layer benchmarks (google-benchmark): TSV vs kf::store binary
// load/save throughput for the scale-1 synthetic corpus and its fused KB
// (import both ways, binary export), plus the mmap open path.
// bytes_per_second is the headline metric; the *_bytes counters on the
// write benches expose the on-disk size ratio the binary format claims
// (>=3x smaller, >=5x faster to load than TSV).
//
// scripts/bench.sh runs this binary and merges its JSON into
// BENCH_perf.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "extract/tsv_io.h"
#include "kf/fused_kb.h"
#include "kf/session.h"
#include "store/store.h"
#include "synth/corpus.h"

namespace {

using namespace kf;

// The scale-1 synthetic corpus rendered once through the real TSV text,
// so every bench below parses exactly what a user-supplied file contains.
const std::string& CorpusTsv() {
  static const std::string& tsv = *[] {
    synth::SynthCorpus corpus = synth::GenerateCorpus(synth::SynthConfig{});
    return new std::string(synth::RenderExtractionsTsv(corpus.dataset));
  }();
  return tsv;
}

const extract::TsvCorpus& Corpus() {
  static const extract::TsvCorpus& corpus = *[] {
    auto parsed = extract::ReadExtractionsTsv(CorpusTsv());
    KF_CHECK(parsed.ok());
    return new extract::TsvCorpus(std::move(parsed).value());
  }();
  return corpus;
}

const std::string& CorpusBin() {
  static const std::string& bin =
      *new std::string(store::WriteCorpus(Corpus()));
  return bin;
}

const kf::FusedKB& FusedAtScale1() {
  static const kf::FusedKB& kb = *[] {
    kf::Session session = kf::Session::Borrow(Corpus().dataset);
    auto fused = session.Fuse(fusion::FusionOptions::PopAccu());
    KF_CHECK(fused.ok());
    auto snap = session.Snapshot();
    KF_CHECK(snap.ok());
    return new kf::FusedKB(std::move(snap).value());
  }();
  return kb;
}

void SetCorpusThroughput(benchmark::State& state, size_t bytes) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Corpus().dataset.num_records()));
}

// ---- corpus load: the >=5x claim is LoadBin vs LoadTsv bytes/sec ----

void BM_CorpusLoadTsv(benchmark::State& state) {
  const std::string& tsv = CorpusTsv();
  for (auto _ : state) {
    auto corpus = extract::ReadExtractionsTsv(tsv);
    KF_CHECK(corpus.ok());
    benchmark::DoNotOptimize(corpus);
  }
  SetCorpusThroughput(state, tsv.size());
}
BENCHMARK(BM_CorpusLoadTsv)->Unit(benchmark::kMillisecond);

void BM_CorpusLoadBin(benchmark::State& state) {
  const std::string& bin = CorpusBin();
  for (auto _ : state) {
    auto corpus = store::LoadCorpus(bin);
    KF_CHECK(corpus.ok());
    benchmark::DoNotOptimize(corpus);
  }
  SetCorpusThroughput(state, bin.size());
}
BENCHMARK(BM_CorpusLoadBin)->Unit(benchmark::kMillisecond);

// Open + validate the mmap view without materializing: the zero-copy
// serving path, where load cost is checksums + cross-checks only.
void BM_CorpusMmapOpen(benchmark::State& state) {
  const std::string path = "/tmp/kf_bench_store_corpus.kfs";
  KF_CHECK_OK(store::WriteCorpusFile(Corpus(), path));
  for (auto _ : state) {
    auto view = store::CorpusMmapView::Open(path);
    KF_CHECK(view.ok());
    benchmark::DoNotOptimize(view);
  }
  SetCorpusThroughput(state, CorpusBin().size());
  std::remove(path.c_str());
}
BENCHMARK(BM_CorpusMmapOpen)->Unit(benchmark::kMillisecond);

// ---- corpus save: *_bytes counters carry the >=3x size claim ----

void BM_CorpusWriteTsv(benchmark::State& state) {
  const extract::TsvCorpus& corpus = Corpus();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = extract::WriteExtractionsTsv(corpus);
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  SetCorpusThroughput(state, bytes);
  state.counters["tsv_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CorpusWriteTsv)->Unit(benchmark::kMillisecond);

void BM_CorpusWriteBin(benchmark::State& state) {
  const extract::TsvCorpus& corpus = Corpus();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = store::WriteCorpus(corpus);
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  SetCorpusThroughput(state, bytes);
  state.counters["bin_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CorpusWriteBin)->Unit(benchmark::kMillisecond);

// ---- fused-KB import: same comparison on the downstream artifact ----

void BM_FusedKbImportTsv(benchmark::State& state) {
  const std::string tsv = FusedAtScale1().ToTsv();
  size_t triples = 0;
  for (auto _ : state) {
    auto kb = kf::FusedKB::FromTsv(tsv);
    KF_CHECK(kb.ok());
    triples = kb->num_triples();
    benchmark::DoNotOptimize(kb);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tsv.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(triples));
  state.counters["tsv_bytes"] = static_cast<double>(tsv.size());
}
BENCHMARK(BM_FusedKbImportTsv)->Unit(benchmark::kMillisecond);

void BM_FusedKbImportBin(benchmark::State& state) {
  const std::string bin = FusedAtScale1().ToBinary();
  size_t triples = 0;
  for (auto _ : state) {
    auto kb = kf::FusedKB::FromBinary(bin);
    KF_CHECK(kb.ok());
    triples = kb->num_triples();
    benchmark::DoNotOptimize(kb);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bin.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(triples));
  state.counters["bin_bytes"] = static_cast<double>(bin.size());
}
BENCHMARK(BM_FusedKbImportBin)->Unit(benchmark::kMillisecond);

// ---- fused-KB export: the binary image written straight from the KB's
// columns (no per-triple rows, no re-interning) ----

void BM_FusedKbExportBin(benchmark::State& state) {
  const kf::FusedKB& kb = FusedAtScale1();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string bin = kb.ToBinary();
    bytes = bin.size();
    benchmark::DoNotOptimize(bin);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kb.num_triples()));
  state.counters["bin_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_FusedKbExportBin)->Unit(benchmark::kMillisecond);

}  // namespace

// Same build-type context marker as bench_perf: scripts/bench.sh refuses
// to record from a non-release build, and bench_compare.py warns when a
// baseline's kf_build_type says "debug".
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("kf_build_type", "release");
#else
  benchmark::AddCustomContext("kf_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
