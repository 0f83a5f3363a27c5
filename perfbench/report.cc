#include "report.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "obs/json_writer.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double OpLatencies::Percentile(double q) const {
  if (size() == 0) return 0.0;
  std::vector<double> ok = ok_ms;
  std::vector<double> failed = failed_ms;
  std::sort(ok.begin(), ok.end());
  std::sort(failed.begin(), failed.end());
  // Completed ops first, failed ops after them whatever their duration.
  std::vector<double> ranked = std::move(ok);
  ranked.insert(ranked.end(), failed.begin(), failed.end());
  const double rank = q * static_cast<double>(ranked.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, ranked.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return ranked[lo] * (1.0 - frac) + ranked[hi] * frac;
}

OpLatencies AcrossMedians(const std::vector<OpLatencies>& per_key) {
  OpLatencies across;
  for (const OpLatencies& samples : per_key) {
    if (samples.size() == 0) continue;
    std::vector<double> all = samples.ok_ms;
    all.insert(all.end(), samples.failed_ms.begin(), samples.failed_ms.end());
    const bool failed = samples.failed_ms.size() > samples.ok_ms.size();
    (failed ? across.failed_ms : across.ok_ms).push_back(Median(all));
  }
  return across;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

void Report::Wrong(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
  if (wrong_.size() < 16) wrong_.push_back(what);
}

std::string Report::ToJson() const {
  dvicl::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted);
  w.Key("failed");
  w.Uint(failed);
  w.Key("wrong");
  w.BeginArray();
  for (const std::string& what : wrong_) w.String(what);
  w.EndArray();
  w.Key("notes");
  w.BeginObject();
  for (const auto& [key, value] : notes_) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, metric] : metrics_) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Double(metric.value);
    w.Key("unit");
    w.String(metric.unit);
    w.Key("samples");
    w.Uint(metric.samples);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

uint32_t Spans::Begin(const std::string& name, uint32_t parent, uint64_t op) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, parent, op, now, now});
  return static_cast<uint32_t>(spans_.size());
}

void Spans::End(uint32_t id) { spans_[id - 1].end = Clock::now(); }

uint32_t Spans::Add(const std::string& name, uint32_t parent, uint64_t op,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, op, start, end});
  return static_cast<uint32_t>(spans_.size());
}

bool Spans::Write(const std::string& path) const {
  dvicl::obs::JsonWriter w;
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.Key("id");
    w.Uint(i + 1);
    w.Key("name");
    w.String(span.name);
    w.Key("start_us");
    w.Double(std::chrono::duration<double, std::micro>(span.start - epoch_)
                 .count());
    w.Key("end_us");
    w.Double(
        std::chrono::duration<double, std::micro>(span.end - epoch_).count());
    w.Key("parent");
    w.Uint(span.parent);
    w.Key("op");
    w.Uint(span.op);
    w.EndObject();
  }
  w.EndArray();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string& text = w.Str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t GraphChecksum(const dvicl::Graph& graph, uint64_t hash) {
  const auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(graph.NumVertices());
  for (const dvicl::Edge& edge : graph.Edges()) {
    mix((static_cast<uint64_t>(edge.first) << 32) | edge.second);
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

dvicl::Graph RandomRelabeling(const dvicl::Graph& graph, uint64_t seed) {
  std::vector<dvicl::VertexId> image(graph.NumVertices());
  for (dvicl::VertexId v = 0; v < graph.NumVertices(); ++v) image[v] = v;
  dvicl::Rng rng(seed);
  rng.Shuffle(&image);
  return graph.RelabeledBy(image);
}

}  // namespace perfbench
