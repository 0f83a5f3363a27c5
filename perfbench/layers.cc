#include "layers.h"

#include <algorithm>
#include <chrono>

#include "common/stopwatch.h"
#include "refine/refiner.h"

namespace perfbench {

using dvicl::Coloring;
using dvicl::DviclResult;
using dvicl::Graph;

LabelingProbe ProbeLabeling(const std::vector<const Graph*>& graphs,
                            dvicl::DviclOptions options, Spans* spans,
                            uint32_t parent) {
  options.num_threads = 1;
  LabelingProbe probe;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& graph = *graphs[i];
    const uint64_t op = i + 1;
    {
      Coloring pi = Coloring::Unit(graph.NumVertices());
      SpanScope span(spans, "refine.RefineToEquitable", parent, op);
      const Clock::time_point start = Clock::now();
      dvicl::RefineToEquitable(graph, &pi);
      probe.refine_root_s += SecondsSince(start);
    }

    const Coloring unit = Coloring::Unit(graph.NumVertices());
    double wall = 0.0;
    double rss_growth = 0.0;
    DviclResult result;
    {
      RssSampler rss;
      SpanScope span(spans, "dvicl.DviclCanonicalLabeling.1t", parent, op);
      const Clock::time_point start = Clock::now();
      result = dvicl::DviclCanonicalLabeling(graph, unit, options);
      wall = SecondsSince(start);
      rss_growth = rss.PeakGrowthMib();
    }
    const dvicl::DviclStats& stats = result.stats;
    ++probe.calls;
    probe.label_1t_s += wall;
    probe.stats_wall_s += stats.wall_seconds;
    probe.post_stats_s += wall - stats.wall_seconds;
    probe.cpu_refine_s += stats.refine_seconds;
    probe.cpu_divide_s += stats.divide_seconds;
    probe.cpu_combine_s += stats.combine_seconds;
    probe.unattributed_s += stats.wall_seconds - stats.refine_seconds -
                            stats.divide_seconds - stats.combine_seconds;
    probe.rss_delta_mib = std::max(probe.rss_delta_mib, rss_growth);
    probe.splitters += stats.refine_splitters;
    probe.cell_splits += stats.refine_cell_splits;
    probe.autotree_nodes += stats.autotree_nodes;
    probe.nonsingleton_leaves += stats.nonsingleton_leaves;
    probe.alloc_count += stats.alloc_count;
    probe.alloc_bytes += stats.alloc_bytes;

    if (!result.completed()) {
      probe.certificates.emplace_back();
      continue;
    }
    {
      SpanScope span(spans, "graph.MakeCertificate", parent, op);
      const Clock::time_point start = Clock::now();
      dvicl::Certificate certificate = dvicl::MakeCertificate(
          graph, result.colors, result.canonical_labeling.ImageArray());
      probe.certificate_s += SecondsSince(start);
      probe.certificates.push_back(std::move(certificate));
    }
  }
  return probe;
}

void ReportLabelingProbe(const LabelingProbe& probe, double label_s,
                         Report* report) {
  const uint64_t n = probe.calls;
  report->Set("refine.root_s", probe.refine_root_s, "s", n);
  report->Set("refine.splitters", static_cast<double>(probe.splitters),
              "count", n);
  report->Set("refine.cell_splits", static_cast<double>(probe.cell_splits),
              "count", n);
  report->Set("dvicl.label_1t_s", probe.label_1t_s, "s", n);
  report->Set("dvicl.stats_wall_s", probe.stats_wall_s, "s", n);
  report->Set("dvicl.post_stats_s", probe.post_stats_s, "s", n);
  report->Set("dvicl.cpu_refine_s", probe.cpu_refine_s, "s", n);
  report->Set("dvicl.cpu_divide_s", probe.cpu_divide_s, "s", n);
  report->Set("dvicl.cpu_combine_s", probe.cpu_combine_s, "s", n);
  report->Set("dvicl.unattributed_s", probe.unattributed_s, "s", n);
  report->Set("graph.certificate_s", probe.certificate_s, "s", n);
  report->Set("dvicl.autotree_nodes",
              static_cast<double>(probe.autotree_nodes), "count", n);
  report->Set("dvicl.nonsingleton_leaves",
              static_cast<double>(probe.nonsingleton_leaves), "count", n);
  report->Set("dvicl.alloc_count", static_cast<double>(probe.alloc_count),
              "count", n);
  report->Set("dvicl.alloc_bytes", static_cast<double>(probe.alloc_bytes),
              "B", n);
  report->Set("dvicl.rss_delta_mib", probe.rss_delta_mib, "MiB", n);
  report->Set("common.task_pool.speedup",
              label_s > 0.0 ? probe.label_1t_s / label_s : 0.0, "ratio", n);
  // Share of the single-thread labeling wall that named phases cover: the
  // CPU-second phases (exact at one thread) plus the post-stats tail.
  const double covered = probe.cpu_refine_s + probe.cpu_divide_s +
                         probe.cpu_combine_s + probe.post_stats_s;
  report->Set("bench.span_coverage",
              probe.label_1t_s > 0.0 ? covered / probe.label_1t_s : 0.0,
              "ratio", n);
}

RssSampler::RssSampler()
    : baseline_(dvicl::CurrentRssMebibytes()), peak_(baseline_) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double rss = dvicl::CurrentRssMebibytes();
      if (rss > peak_.load(std::memory_order_relaxed)) {
        peak_.store(rss, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double RssSampler::PeakGrowthMib() {
  const double rss = dvicl::CurrentRssMebibytes();
  if (rss > peak_.load()) peak_.store(rss);
  return peak_.load() - baseline_;
}

}  // namespace perfbench
