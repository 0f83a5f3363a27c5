// Shared plumbing of the benchmark driver: run options, timing helpers,
// the metric record, in-memory spans and seeded input helpers.
#ifndef DVICL_PERFBENCH_REPORT_H_
#define DVICL_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and short phases, for the benchmark's own smoke test.
  bool tiny = false;
  // Engine thread count (massive-social) and server pool width.
  uint32_t threads = 1;
  // serve-gadget: HOST:PORT of the dvicl_server child process.
  std::string connect;
  // Traced runs write their spans here when they end.
  std::string spans_path;
};

double SecondsSince(Clock::time_point start);
double MillisBetween(Clock::time_point from, Clock::time_point to);

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Per-op latencies. A failed op (deadline, wrong answer, transport failure
// or refusal) ranks above every completed op, so it counts against every
// latency limit; its own elapsed time is what a percentile landing on it
// reports.
struct OpLatencies {
  std::vector<double> ok_ms;
  std::vector<double> failed_ms;

  size_t size() const { return ok_ms.size() + failed_ms.size(); }
  double Percentile(double q) const;
};

// One entry per key (e.g. per query): the median of its samples, counted
// as failed when most of its samples failed.
OpLatencies AcrossMedians(const std::vector<OpLatencies>& per_key);

// A metric as measured, with its unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// The result of one run: op counts, metrics, notes (input checksums and the
// like) and the correctness verdict. Serialized as one JSON object on the
// last line of stdout; perfbench/run.py adds the host stamp.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  void Note(const std::string& key, const std::string& value);
  // A wrong output: the run is not correct and exits nonzero.
  void Wrong(const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return wrong_.empty(); }
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> wrong_;
};

// Spans recorded around the benchmark's calls into each layer. Kept in
// memory and written out when the run ends; disabled spans cost one branch.
class Spans {
 public:
  static constexpr uint32_t kNoParent = 0;

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns the span id (ids start at 1; 0 means "no span").
  uint32_t Begin(const std::string& name, uint32_t parent, uint64_t op);
  void End(uint32_t id);
  // A span whose interval was measured elsewhere (e.g. a client request
  // timed by its own thread). Returns its id, 0 when disabled.
  uint32_t Add(const std::string& name, uint32_t parent, uint64_t op,
           Clock::time_point start, Clock::time_point end);

  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint32_t parent;
    uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// RAII span; inert when spans are disabled.
class SpanScope {
 public:
  SpanScope(Spans* spans, const std::string& name, uint32_t parent,
            uint64_t op)
      : spans_(spans),
        id_(spans->enabled() ? spans->Begin(name, parent, op) : 0) {}
  ~SpanScope() {
    if (id_ != 0) spans_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint32_t id() const { return id_; }

 private:
  Spans* spans_;
  uint32_t id_;
};

// Independent sub-seed number `stream` of the run seed (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// FNV-1a over the vertex count and the edge list, chained from `hash`.
uint64_t GraphChecksum(const dvicl::Graph& graph,
                       uint64_t hash = 1469598103934665603ull);
std::string Hex(uint64_t value);

// A seeded uniformly random relabeling of `graph`.
dvicl::Graph RandomRelabeling(const dvicl::Graph& graph, uint64_t seed);

int RunMassiveSocial(const Options& options, Report* report, Spans* spans);
int RunSymmetricCorpus(const Options& options, Report* report, Spans* spans);
int RunServeGadget(const Options& options, Report* report, Spans* spans);

}  // namespace perfbench

#endif  // DVICL_PERFBENCH_REPORT_H_
