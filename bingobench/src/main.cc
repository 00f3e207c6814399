// bingobench — the repository's end-to-end and per-layer benchmark.
//
//   bingobench --workload int-bias|float-bias --seed N --seconds S
//              --trace 0|1 [--data-dir DIR]
//
// A workload is one bias regime; every workload runs the same three
// sections (walk, ingest, serve), interleaved round by round, so every run
// reports every metric. Prints machine context, per-phase notes and per-run accounting,
// then as its last line one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics untraced, per-layer metrics traced. Exits 1
// when any output check fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bingobench/src/harness.h"
#include "bingobench/src/workloads.h"

namespace bingobench {

std::unique_ptr<bingo::core::BingoStore> BuildStore(
    const bingo::graph::WeightedEdgeList& edges, VertexId num_vertices,
    bingo::util::ThreadPool* pool) {
  bingo::graph::DynamicGraph g = [&] {
    Span span("graph.build");
    return bingo::graph::DynamicGraph::FromEdges(num_vertices, edges);
  }();
  Span span("core.store.build");
  return std::make_unique<bingo::core::BingoStore>(
      std::move(g), bingo::core::BingoConfig{}, pool);
}

void StoreLayerMetrics(const bingo::core::BingoStore& store, Report& report) {
  const bingo::core::StoreMemoryStats memory = store.MemoryStats();
  report.Layer("core.store.graph_mib", "MiB",
               MiB(static_cast<double>(memory.graph_bytes)));
  report.Layer("core.store.sampler_mib", "MiB",
               MiB(static_cast<double>(memory.SamplerBytes())));
  // Indexed by core::GroupKind.
  static const char* const kKinds[5] = {"empty", "dense", "one_element",
                                        "sparse", "regular"};
  const std::array<uint64_t, 5> kinds = store.CountGroupKinds();
  for (std::size_t i = 0; i < 5; ++i) {
    report.Layer(std::string("core.store.group_kinds.") + kKinds[i], "count",
                 static_cast<double>(kinds[i]));
  }
}

double MedianSpan(const std::string& name) {
  return Median(Tracer::Get().Durations(name));
}

double TotalSpan(const std::string& name) {
  double total = 0.0;
  for (double x : Tracer::Get().Durations(name)) {
    total += x;
  }
  return total;
}

double MeanSpan(const std::string& name) {
  const std::size_t calls = Tracer::Get().Durations(name).size();
  return calls == 0 ? 0.0 : TotalSpan(name) / static_cast<double>(calls);
}

}  // namespace bingobench

namespace {

// Shares of --seconds given to the walk, ingest and serve sections.
constexpr double kWalkShare = 0.5;
constexpr double kIngestShare = 0.30;
constexpr double kServeShare = 0.2;

int Usage(const char* why) {
  std::fprintf(stderr,
               "bingobench: %s\nusage: bingobench --workload "
               "int-bias|float-bias --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bingobench;
  Options opt;
  opt.data_dir = ".bench_data";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "int-bias" && value != "float-bias") {
        return Usage(("unknown workload '" + value + "'").c_str());
      }
      opt.workload = value;
      opt.float_bias = value == "float-bias";
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--data-dir") {
      opt.data_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (opt.workload.empty()) {
    return Usage("--workload is required");
  }
  if (!(opt.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.data_dir, ec);
  if (ec) {
    return Usage(("cannot create data dir " + opt.data_dir).c_str());
  }

  Tracer::Get().Enable(opt.trace);
  PrintMachineContext(opt);
  Report report(opt);
  std::vector<std::unique_ptr<Section>> sections;
  sections.push_back(MakeWalkSection(opt, opt.seconds * kWalkShare, report));
  sections.push_back(MakeIngestSection(opt, opt.seconds * kIngestShare, report));
  sections.push_back(MakeServeSection(opt, opt.seconds * kServeShare, report));
  double setup_s = 0.0;
  for (const auto& section : sections) {
    setup_s += section->setup_s();
  }
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& section : sections) {
      section->Round(round);
    }
  }
  for (const auto& section : sections) {
    section->Finish();
  }
  sections.clear();
  report.EndToEnd("setup_s", "s", setup_s);
  report.EndToEnd("peak_rss_mib", "MiB", PeakRssMiB());
  if (opt.trace) {
    // Summed over every store the run builds, set-up repeats included.
    report.Layer("graph.build_s", "s", TotalSpan("graph.build"));
    report.Layer("core.store.build_s", "s", TotalSpan("core.store.build"));
    const std::string path = opt.data_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    report.Check(Tracer::Get().Write(path, stdout), "write trace " + path);
  }
  return report.Finish();
}
