// massive-social: the paper's "massive graphs" claim (§7, Table 5). The
// twin-rich social graph of bench/large_scale at its 1M setting
// (PreferentialAttachment(1e6, 6) -> WithTwins(0.06) -> WithPendantPaths
// (0.05, 3), ~1.17M vertices / ~6.8M edges), built once per set-up and then
// labeled again and again by one caller in a closed loop.

#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "datasets/generators.h"
#include "dvicl/dvicl.h"
#include "layers.h"
#include "report.h"

namespace perfbench {

namespace {

using dvicl::Coloring;
using dvicl::DviclResult;
using dvicl::Graph;
using dvicl::VertexId;

constexpr int kSetups = 3;

Graph GenerateSocialGraph(VertexId n, uint64_t seed) {
  Graph graph = dvicl::PreferentialAttachmentGraph(n, 6, SubSeed(seed, 0));
  graph = dvicl::WithTwins(graph, 0.06, SubSeed(seed, 1));
  return dvicl::WithPendantPaths(graph, 0.05, 3, SubSeed(seed, 2));
}

}  // namespace

int RunMassiveSocial(const Options& options, Report* report, Spans* spans) {
  const VertexId base_n = options.tiny ? 20000 : 1000000;
  const uint32_t root =
      spans->enabled() ? spans->Begin("massive-social", Spans::kNoParent, 0)
                       : 0;

  // Set-up: the generator runs kSetups times; every run must produce the
  // same graph, and the median is setup_s.
  std::vector<double> setup_s;
  Graph graph;
  uint64_t checksum = 0;
  for (int k = 0; k < kSetups; ++k) {
    graph = Graph();
    SpanScope span(spans, "datasets.generate", root, 0);
    const Clock::time_point start = Clock::now();
    graph = GenerateSocialGraph(base_n, options.seed);
    setup_s.push_back(SecondsSince(start));
    const uint64_t sum = GraphChecksum(graph);
    if (k == 0) checksum = sum;
    if (sum != checksum) {
      report->Wrong("generator output differs between set-ups");
    }
  }
  const VertexId n = graph.NumVertices();
  report->Note("input_checksum", Hex(checksum));
  report->Note("vertices", std::to_string(n));
  report->Note("edges", std::to_string(graph.NumEdges()));
  report->Note("engine_threads", std::to_string(options.threads));

  dvicl::DviclOptions label_options;
  label_options.num_threads = options.threads;
  const Coloring unit = Coloring::Unit(n);

  // Timed window: closed-loop labeling. A traced run alternates calls with
  // and without a span around them, so it can report its own overhead.
  const int min_calls = options.trace ? 4 : 3;
  OpLatencies latencies;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  dvicl::Certificate reference;
  const Clock::time_point window = Clock::now();
  for (uint64_t call = 0;; ++call) {
    if (static_cast<int>(call) >= min_calls &&
        SecondsSince(window) >= options.seconds) {
      break;
    }
    const bool traced = options.trace && call % 2 == 1;
    const uint32_t span =
        traced ? spans->Begin("dvicl.DviclCanonicalLabeling", root, call + 1)
               : 0;
    const Clock::time_point start = Clock::now();
    DviclResult result =
        dvicl::DviclCanonicalLabeling(graph, unit, label_options);
    const double wall = SecondsSince(start);
    if (span != 0) spans->End(span);
    ++report->attempted;
    (traced ? traced_s : untraced_s).push_back(wall);

    // Output check, outside the call's own timing.
    bool ok = result.completed();
    if (ok && reference.empty()) {
      reference = std::move(result.certificate);
    } else if (ok && result.certificate != reference) {
      report->Wrong("certificate differs between iterations");
      ok = false;
    }
    if (!ok) ++report->failed;
    (ok ? latencies.ok_ms : latencies.failed_ms).push_back(wall * 1e3);
  }

  // The certificate of a seeded random relabeling must be the same.
  {
    Graph relabeled = RandomRelabeling(graph, SubSeed(options.seed, 3));
    DviclResult result =
        dvicl::DviclCanonicalLabeling(relabeled, Coloring::Unit(n),
                                      label_options);
    if (!result.completed() || result.certificate != reference) {
      report->Wrong("certificate of a relabeled copy differs");
    }
  }
  const double peak_rss_mib = dvicl::PeakRssMebibytes();

  std::vector<double> all_s = untraced_s;
  all_s.insert(all_s.end(), traced_s.begin(), traced_s.end());
  const double label_s = Median(untraced_s);
  std::string walls;
  for (double s : all_s) {
    walls += (walls.empty() ? "" : " ") + std::to_string(s);
  }
  report->Note("label_walls_s", walls);
  double busy_s = 0.0;
  for (double s : all_s) busy_s += s;
  const uint64_t calls = all_s.size();
  const uint64_t ok_calls = report->attempted - report->failed;

  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Set("label_s", label_s, "s", untraced_s.size());
  report->Set("ops_per_s", static_cast<double>(ok_calls) / busy_s, "1/s",
              calls);
  report->Set("p50_ms", latencies.Percentile(0.50), "ms", calls);
  report->Set("p99_ms", latencies.Percentile(0.99), "ms", calls);
  report->Set("peak_rss_mib", peak_rss_mib, "MiB", 1);
  report->Set("success_rate",
              static_cast<double>(ok_calls) /
                  static_cast<double>(report->attempted),
              "ratio", report->attempted);
  report->Set("error_rate",
              static_cast<double>(report->failed) /
                  static_cast<double>(report->attempted),
              "ratio", report->attempted);
  report->Set("datasets.generate_s", Median(setup_s), "s", setup_s.size());

  if (options.trace) {
    const LabelingProbe probe =
        ProbeLabeling({&graph}, label_options, spans, root);
    if (probe.certificates.empty() || probe.certificates[0] != reference) {
      report->Wrong("single-thread certificate differs");
    }
    ReportLabelingProbe(probe, Median(all_s), report);
    report->Set("bench.trace_overhead.label_s",
                Median(traced_s) - Median(untraced_s), "s", calls);
    report->Set("bench.trace_overhead.p50_ms",
                (Median(traced_s) - Median(untraced_s)) * 1e3, "ms", calls);
  }
  if (root != 0) spans->End(root);
  return 0;
}

}  // namespace perfbench
