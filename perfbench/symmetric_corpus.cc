// symmetric-corpus: the hard benchmark families of paper Tables 2/8
// (BenchmarkSuite(1) and BenchmarkSuite(2), after McKay-Piperno's
// "Practical graph isomorphism, II"). Closed loop, one caller: isomorphism
// queries with DviclIsomorphic under a fixed per-op time limit. Every graph
// is paired with a seeded random relabeling of itself (answer: isomorphic);
// each CFI graph is also paired with a relabeled copy of its twisted twin
// (answer: not isomorphic). Most of these graphs are a single AutoTree
// leaf, so the leaf IR search does almost all of the work.
//
// The ag2/pg2 pairs exceed the time limit under the default leaf backend.
// They stay in the corpus and count as failed ops.

#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "datasets/benchmark_suite.h"
#include "datasets/generators.h"
#include "dvicl/dvicl.h"
#include "ir/ir_canonical.h"
#include "layers.h"
#include "report.h"

namespace perfbench {

namespace {

using dvicl::Coloring;
using dvicl::Graph;

// Per labeling run; DviclIsomorphic runs two. The completed ops take well
// under a tenth of this.
constexpr double kOpTimeLimitSeconds = 0.1;
constexpr int kSetups = 5;
constexpr int kLabelRounds = 15;

struct Query {
  std::string family;
  const Graph* graph;  // into Corpus::graphs
  Graph other;
  bool isomorphic;
};

struct Corpus {
  std::vector<dvicl::NamedGraph> graphs;  // suite graphs, then twisted CFIs
  std::vector<std::string> families;      // parallel to graphs
  std::vector<Query> queries;
  uint64_t checksum = 0;
};

// "ag2-13" -> "ag2", "difp-like-1" -> "difp", "grid-w-3-6" -> "grid".
std::string FamilyOf(const std::string& name) {
  return name.substr(0, name.find('-'));
}

Corpus BuildCorpus(bool tiny, uint64_t seed) {
  Corpus corpus;
  std::vector<size_t> untwisted;  // suite index of each twisted twin's base
  std::vector<dvicl::NamedGraph> twins;
  for (int scale : {1, 2}) {
    if (tiny && scale == 2) break;
    for (dvicl::NamedGraph& named : dvicl::BenchmarkSuite(scale)) {
      if (FamilyOf(named.name) == "cfi") {
        // The suite's CFI base sizes: 8 at scale 1, 16 at scale 2.
        untwisted.push_back(corpus.graphs.size());
        twins.push_back({named.name + "-twisted", named.category,
                         dvicl::CfiGraph(scale == 2 ? 16 : 8, true)});
      }
      corpus.graphs.push_back(std::move(named));
    }
  }
  const size_t suite_size = corpus.graphs.size();
  for (dvicl::NamedGraph& twin : twins) {
    corpus.graphs.push_back(std::move(twin));
  }
  for (const dvicl::NamedGraph& named : corpus.graphs) {
    corpus.families.push_back(FamilyOf(named.name));
  }
  uint64_t stream = 100;
  for (size_t i = 0; i < suite_size; ++i) {
    const Graph& graph = corpus.graphs[i].graph;
    corpus.queries.push_back({corpus.families[i], &graph,
                              RandomRelabeling(graph, SubSeed(seed, stream++)),
                              true});
  }
  for (size_t t = 0; t < untwisted.size(); ++t) {
    const size_t base = untwisted[t];
    corpus.queries.push_back(
        {corpus.families[base], &corpus.graphs[base].graph,
         RandomRelabeling(corpus.graphs[suite_size + t].graph,
                          SubSeed(seed, stream++)),
         false});
  }
  uint64_t checksum = 1469598103934665603ull;
  for (const Query& query : corpus.queries) {
    checksum = GraphChecksum(*query.graph, checksum);
    checksum = GraphChecksum(query.other, checksum);
  }
  corpus.checksum = checksum;
  return corpus;
}

}  // namespace

int RunSymmetricCorpus(const Options& options, Report* report, Spans* spans) {
  const uint32_t root =
      spans->enabled() ? spans->Begin("symmetric-corpus", Spans::kNoParent, 0)
                       : 0;
  std::vector<double> setup_s;
  Corpus corpus;
  for (int k = 0; k < kSetups; ++k) {
    corpus = Corpus();
    SpanScope span(spans, "datasets.generate", root, 0);
    const Clock::time_point start = Clock::now();
    corpus = BuildCorpus(options.tiny, options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  report->Note("input_checksum", Hex(corpus.checksum));
  report->Note("queries_per_pass", std::to_string(corpus.queries.size()));
  report->Note("op_time_limit_s", std::to_string(kOpTimeLimitSeconds));

  dvicl::DviclOptions label_options;
  label_options.time_limit_seconds = kOpTimeLimitSeconds;

  // Timed window: whole passes over the queries, so every run measures the
  // same mix. A traced run alternates passes without and with op spans.
  const int min_passes = options.trace ? 2 : 1;
  const size_t num_queries = corpus.queries.size();
  std::vector<OpLatencies> untraced_ops(num_queries);
  std::vector<OpLatencies> traced_ops(num_queries);
  uint64_t ok_ops = 0;
  uint64_t deadline_ops = 0;
  uint64_t op_id = 0;
  const Clock::time_point window = Clock::now();
  for (int pass = 0;; ++pass) {
    if (pass >= min_passes && SecondsSince(window) >= options.seconds) break;
    const bool traced = options.trace && pass % 2 == 1;
    for (size_t q = 0; q < num_queries; ++q) {
      const Query& query = corpus.queries[q];
      ++op_id;
      const uint32_t span =
          traced ? spans->Begin("dvicl.DviclIsomorphic." + query.family, root,
                                op_id)
                 : 0;
      bool decided = false;
      const Clock::time_point start = Clock::now();
      const bool isomorphic = dvicl::DviclIsomorphic(
          *query.graph, query.other, label_options, &decided);
      const double ms = MillisBetween(start, Clock::now());
      if (span != 0) spans->End(span);
      ++report->attempted;
      bool ok = decided;
      if (!decided) {
        ++deadline_ops;
      } else if (isomorphic != query.isomorphic) {
        report->Wrong("wrong isomorphism answer on " + query.family);
        ok = false;
      }
      OpLatencies& samples = (traced ? traced_ops : untraced_ops)[q];
      (ok ? samples.ok_ms : samples.failed_ms).push_back(ms);
      if (ok) {
        ++ok_ops;
      } else {
        ++report->failed;
      }
    }
  }
  const double window_s = SecondsSince(window);
  // Percentiles are taken across the queries' medians: every query weighs
  // the same, and a percentile never lands on the edge between two queries'
  // samples, where it would jump from run to run.
  const OpLatencies latencies = AcrossMedians(untraced_ops);

  // Labeling time: every distinct graph labeled kLabelRounds times (a traced
  // run alternates rounds without and with spans). A graph whose first run
  // hits the time limit is labeled once: it ranks above the median anyway.
  const int rounds = options.trace ? 2 * kLabelRounds : kLabelRounds;
  std::vector<std::vector<double>> per_graph(corpus.graphs.size());
  std::vector<std::vector<double>> per_graph_traced(corpus.graphs.size());
  std::vector<bool> completes(corpus.graphs.size(), true);
  for (int round = 0; round < rounds; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    Spans off(false);
    for (size_t i = 0; i < corpus.graphs.size(); ++i) {
      if (!completes[i]) continue;
      const Graph& graph = corpus.graphs[i].graph;
      const Coloring unit = Coloring::Unit(graph.NumVertices());
      SpanScope span(traced ? spans : &off, "dvicl.DviclCanonicalLabeling",
                     root, i + 1);
      const Clock::time_point start = Clock::now();
      completes[i] =
          dvicl::DviclCanonicalLabeling(graph, unit, label_options)
              .completed();
      (traced ? per_graph_traced : per_graph)[i].push_back(
          SecondsSince(start));
    }
  }
  std::vector<double> graph_medians;
  std::vector<double> traced_medians;
  double pass_s = 0.0;
  for (size_t i = 0; i < corpus.graphs.size(); ++i) {
    graph_medians.push_back(Median(per_graph[i]));
    pass_s += graph_medians.back();
    if (!per_graph_traced[i].empty()) {
      traced_medians.push_back(Median(per_graph_traced[i]));
    }
  }
  const double label_s = Median(graph_medians);

  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Set("label_s", label_s, "s", graph_medians.size());
  report->Set("ops_per_s", static_cast<double>(ok_ops) / window_s, "1/s",
              report->attempted);
  report->Set("p50_ms", latencies.Percentile(0.50), "ms", report->attempted);
  report->Set("p99_ms", latencies.Percentile(0.99), "ms", report->attempted);
  report->Set("peak_rss_mib", dvicl::PeakRssMebibytes(), "MiB", 1);
  report->Set("success_rate",
              static_cast<double>(ok_ops) /
                  static_cast<double>(report->attempted),
              "ratio", report->attempted);
  report->Set("error_rate",
              static_cast<double>(report->failed) /
                  static_cast<double>(report->attempted),
              "ratio", report->attempted);
  report->Set("dvicl.deadline_ops", static_cast<double>(deadline_ops),
              "count", report->attempted);
  report->Set("datasets.generate_s", Median(setup_s), "s", setup_s.size());

  if (!options.trace) return 0;

  report->Set("bench.trace_overhead.label_s",
              Median(traced_medians) - label_s, "s", graph_medians.size());
  report->Set("bench.trace_overhead.p50_ms",
              AcrossMedians(traced_ops).Percentile(0.5) -
                  latencies.Percentile(0.5),
              "ms", report->attempted);

  std::vector<const Graph*> graphs;
  for (const dvicl::NamedGraph& named : corpus.graphs) {
    graphs.push_back(&named.graph);
  }
  ReportLabelingProbe(ProbeLabeling(graphs, label_options, spans, root),
                      pass_s, report);

  // The IR layer alone: whole-graph IrCanonicalLabeling under the same
  // limit, two rounds over the corpus. Counters come from the completed
  // searches of the first round.
  dvicl::IrOptions ir_options;
  ir_options.preset = label_options.leaf_backend;
  ir_options.time_limit_seconds = kOpTimeLimitSeconds;
  OpLatencies search;
  std::map<std::string, OpLatencies> by_family;
  dvicl::IrStats counters;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < corpus.graphs.size(); ++i) {
      const Graph& graph = corpus.graphs[i].graph;
      const Coloring unit = Coloring::Unit(graph.NumVertices());
      SpanScope span(spans, "ir.IrCanonicalLabeling." + corpus.families[i],
                     root, i + 1);
      const Clock::time_point start = Clock::now();
      const dvicl::IrResult result =
          dvicl::IrCanonicalLabeling(graph, unit, ir_options);
      const double ms = MillisBetween(start, Clock::now());
      OpLatencies& family = by_family[corpus.families[i]];
      (result.completed() ? search.ok_ms : search.failed_ms).push_back(ms);
      (result.completed() ? family.ok_ms : family.failed_ms).push_back(ms);
      if (round == 0 && result.completed()) counters.MergeFrom(result.stats);
    }
  }
  report->Set("ir.search_ms", search.Percentile(0.5), "ms", search.size());
  for (const auto& [family, samples] : by_family) {
    report->Set("ir.search_ms." + family, samples.Percentile(0.5), "ms",
                samples.size());
  }
  const uint64_t searches = corpus.graphs.size();
  report->Set("ir.tree_nodes", static_cast<double>(counters.tree_nodes),
              "count", searches);
  report->Set("ir.leaves", static_cast<double>(counters.leaves), "count",
              searches);
  report->Set("ir.automorphisms",
              static_cast<double>(counters.automorphisms_found), "count",
              searches);
  report->Set("ir.backjumps", static_cast<double>(counters.backjumps),
              "count", searches);
  report->Set("ir.orbit_prunes", static_cast<double>(counters.orbit_prunes),
              "count", searches);
  // Automorphisms found per leaf visited; its base is ir.leaves.
  report->Set("ir.useful_leaf_ratio",
              counters.leaves > 0
                  ? static_cast<double>(counters.automorphisms_found) /
                        static_cast<double>(counters.leaves)
                  : 0.0,
              "ratio", counters.leaves);
  if (root != 0) spans->End(root);
  return 0;
}

}  // namespace perfbench
