// Per-layer probes for the traced run: each layer's public entry point is
// timed alone, from outside the library, over a workload's own inputs. The
// engine counters come from the structs its API already returns
// (DviclStats, IrStats); nothing here reaches inside src/.
#ifndef DVICL_PERFBENCH_LAYERS_H_
#define DVICL_PERFBENCH_LAYERS_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dvicl/dvicl.h"
#include "graph/graph.h"
#include "report.h"

namespace perfbench {

// Engine layers (refine, dvicl, graph) over one pass of `graphs`, labeled
// one at a time at ONE thread with `options` otherwise unchanged. Times and
// counters are sums over the pass.
struct LabelingProbe {
  uint64_t calls = 0;
  double refine_root_s = 0.0;   // RefineToEquitable on the unit coloring
  double label_1t_s = 0.0;      // DviclCanonicalLabeling wall
  double stats_wall_s = 0.0;    // DviclStats::wall_seconds
  double post_stats_s = 0.0;    // call wall - stats wall
  double cpu_refine_s = 0.0;
  double cpu_divide_s = 0.0;
  double cpu_combine_s = 0.0;
  double unattributed_s = 0.0;  // stats wall - phase sum
  double certificate_s = 0.0;   // MakeCertificate alone
  double rss_delta_mib = 0.0;   // largest RSS growth during one call
  uint64_t splitters = 0;
  uint64_t cell_splits = 0;
  uint64_t autotree_nodes = 0;
  uint64_t nonsingleton_leaves = 0;
  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;
  // Certificate of each graph (empty where the run did not complete).
  std::vector<dvicl::Certificate> certificates;
};

LabelingProbe ProbeLabeling(const std::vector<const dvicl::Graph*>& graphs,
                            dvicl::DviclOptions options, Spans* spans,
                            uint32_t parent);

// Emits the probe's metrics. `label_s` is the workload's own labeling time
// for the same pass at its configured thread count, the base of
// common.task_pool.speedup.
void ReportLabelingProbe(const LabelingProbe& probe, double label_s,
                         Report* report);

// Samples the process RSS every few milliseconds while alive; PeakGrowth()
// is the largest rise over the value at construction.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double PeakGrowthMib();

 private:
  double baseline_;
  std::atomic<double> peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // DVICL_PERFBENCH_LAYERS_H_
