// serve-gadget: the served API. A dvicl_server child process (started by
// perfbench/run.py) is driven over 4 connections with the loadgen
// gadget-forest mix, which covers all five compute classes. Two phases:
//   1. open loop at a fixed rate well below saturation, each request timed
//      from its scheduled send time (p50_ms, p99_ms);
//   2. closed loop, every connection sending back to back (ops_per_s).
// Every reply is byte-compared against an in-process reference Server, as
// loadgen --verify=1 does. Graphs are tiny and every copy of a forest lowers
// to the same leaf, so the shared CertCache answers nearly every leaf; the
// aut_order class (dense Schreier-Sims after labeling) is the tail.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datasets/generators.h"
#include "dvicl/dvicl.h"
#include "layers.h"
#include "perm/perm_group.h"
#include "perm/schreier_sims.h"
#include "report.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "ssm/ssm_at.h"

namespace perfbench {

namespace {

using dvicl::Coloring;
using dvicl::GadgetForestGraph;
using dvicl::Graph;
using dvicl::VertexId;
using dvicl::server::Reply;
using dvicl::server::Request;
using dvicl::server::RequestClass;

constexpr int kSetups = 5;
constexpr unsigned kConnections = 4;
constexpr double kOpenLoopQps = 100.0;
constexpr uint8_t kComputeClasses = 5;  // kCanonicalForm .. kSsmCount
constexpr int kLabelRounds = 200;

// The loadgen "gadget-forest" template pool (bench/loadgen.cc), every
// template with the same weight.
std::vector<Request> BuildMix() {
  std::vector<Request> pool;
  const auto add = [&pool](Graph graph, RequestClass cls) {
    Request request;
    request.cls = cls;
    request.graph = std::move(graph);
    pool.push_back(std::move(request));
  };
  for (uint32_t copies : {2u, 3u, 4u, 5u}) {
    for (uint32_t rungs : {3u, 4u}) {
      add(GadgetForestGraph(copies, rungs), RequestClass::kCanonicalForm);
    }
  }
  for (uint32_t copies : {2u, 3u, 4u}) {
    add(GadgetForestGraph(copies, 3), RequestClass::kAutOrder);
    add(GadgetForestGraph(copies, 4), RequestClass::kOrbits);
  }
  add(GadgetForestGraph(3, 3), RequestClass::kIsoTest);
  pool.back().graph2 = GadgetForestGraph(3, 3);
  add(GadgetForestGraph(4, 3), RequestClass::kSsmCount);
  const VertexId n = pool.back().graph.NumVertices();
  for (VertexId v = 0; v < std::min<VertexId>(6, n); ++v) {
    pool.back().query.push_back(v);
  }
  return pool;
}

// Reply bytes with the echoed request id zeroed: what every server must
// agree on byte for byte.
std::string CanonicalReplyBytes(Reply reply) {
  reply.id = 0;
  std::string encoded;
  EncodeReply(reply, &encoded);
  return encoded;
}

// Template indices drawn from a reshuffled deck of the whole pool, so every
// run sends the mix in its exact proportions; the seed fixes the order.
class Deck {
 public:
  Deck(uint64_t seed, size_t size) : rng_(seed), cards_(size), next_(size) {
    for (size_t i = 0; i < size; ++i) cards_[i] = i;
  }
  size_t Next() {
    if (next_ == cards_.size()) {
      rng_.Shuffle(&cards_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  dvicl::Rng rng_;
  std::vector<size_t> cards_;
  size_t next_;
};

// Seeds of the open-loop (untraced, traced) and closed-loop phases.
constexpr uint64_t kPhaseStreams[] = {10, 11, 12};

struct Inputs {
  std::vector<Request> pool;
  std::vector<Reply> replies;             // reference replies, per template
  std::vector<std::string> reference;     // their canonical bytes
  std::vector<const Graph*> graphs;       // distinct graphs of the pool
  uint64_t checksum = 0;
};

Inputs BuildInputs(uint64_t seed) {
  Inputs inputs;
  inputs.pool = BuildMix();
  dvicl::server::Server local{dvicl::server::ServerOptions{}};
  uint64_t checksum = 1469598103934665603ull;
  std::vector<uint64_t> seen;
  for (const Request& request : inputs.pool) {
    inputs.replies.push_back(local.Handle(request));
    inputs.reference.push_back(CanonicalReplyBytes(inputs.replies.back()));
    for (const Graph* graph : {&request.graph, &request.graph2}) {
      if (graph->NumVertices() == 0) continue;
      const uint64_t sum = GraphChecksum(*graph);
      if (std::find(seen.begin(), seen.end(), sum) == seen.end()) {
        seen.push_back(sum);
        inputs.graphs.push_back(graph);
      }
    }
    std::string payload;
    EncodeRequest(request, &payload);
    for (unsigned char byte : payload) {
      checksum = (checksum ^ byte) * 1099511628211ull;
    }
  }
  // The template order every connection of every phase draws.
  for (uint64_t stream : kPhaseStreams) {
    for (unsigned c = 0; c < kConnections; ++c) {
      Deck deck(SubSeed(SubSeed(seed, stream), c), inputs.pool.size());
      for (int k = 0; k < 4096; ++k) {
        checksum = (checksum ^ deck.Next()) * 1099511628211ull;
      }
    }
  }
  inputs.checksum = checksum;
  return inputs;
}

struct Sample {
  size_t template_index;
  bool ok;
  Clock::time_point scheduled;  // open loop only
  Clock::time_point sent;
  Clock::time_point received;
};

struct Outcome {
  std::vector<Sample> samples;
  uint64_t wrong = 0;
};

// One connection's loop. interval > 0: open loop on a fixed grid from
// `start`; interval == 0: closed loop, back to back. Stops at `end`.
Outcome Drive(const dvicl::server::Endpoint& endpoint, const Inputs& inputs,
              uint64_t seed, unsigned connection, Clock::time_point start,
              Clock::time_point end, Clock::duration interval,
              uint64_t* next_id) {
  Outcome outcome;
  Deck deck(seed, inputs.pool.size());
  std::optional<dvicl::server::Client> client;
  for (uint64_t k = 0;; ++k) {
    Clock::time_point scheduled = Clock::now();
    if (interval.count() > 0) {
      scheduled = start + interval * static_cast<int64_t>(k);
      if (scheduled >= end) break;
      std::this_thread::sleep_until(scheduled);
    } else if (scheduled >= end) {
      break;
    }
    const size_t index = deck.Next();
    Request request = inputs.pool[index];
    request.id = (static_cast<uint64_t>(connection) << 40) | ++*next_id;
    const Clock::time_point sent = Clock::now();
    bool ok = false;
    if (!client.has_value()) {
      auto connected =
          dvicl::server::Client::ConnectTcp(endpoint.host, endpoint.port);
      if (connected.ok()) {
        client.emplace(std::move(connected).value());
        client->set_deadline_ms(10'000);
      }
    }
    if (client.has_value()) {
      auto reply = client->Call(request);
      if (!reply.ok()) {
        client.reset();  // transport failure: reconnect for the next op
      } else if (reply.value().id != request.id ||
                 (reply.value().ok() &&
                  CanonicalReplyBytes(reply.value()) !=
                      inputs.reference[index])) {
        ++outcome.wrong;
      } else {
        ok = reply.value().ok();  // a refusal or budget outcome fails
      }
    }
    outcome.samples.push_back({index, ok, scheduled, sent, Clock::now()});
  }
  return outcome;
}

// Runs kConnections loops for `seconds` and merges their samples.
Outcome RunPhase(const dvicl::server::Endpoint& endpoint,
                 const Inputs& inputs, uint64_t seed, double seconds,
                 bool open_loop) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::duration interval =
      open_loop ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kConnections /
                                                    kOpenLoopQps))
                : Clock::duration::zero();
  std::vector<Outcome> outcomes(kConnections);
  std::vector<uint64_t> ids(kConnections, 0);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      // Stagger the connections evenly over one interval.
      const Clock::time_point offset =
          start + interval * static_cast<int64_t>(c) / kConnections;
      outcomes[c] = Drive(endpoint, inputs, SubSeed(seed, c), c, offset, end,
                          interval, &ids[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  Outcome merged;
  for (Outcome& outcome : outcomes) {
    merged.wrong += outcome.wrong;
    merged.samples.insert(merged.samples.end(), outcome.samples.begin(),
                          outcome.samples.end());
  }
  return merged;
}

std::map<std::string, uint64_t> Fetch(const dvicl::server::Endpoint& endpoint,
                                      bool metrics) {
  std::map<std::string, uint64_t> values;
  auto connected =
      dvicl::server::Client::ConnectTcp(endpoint.host, endpoint.port);
  if (!connected.ok()) return values;
  dvicl::server::Client client = std::move(connected).value();
  client.set_deadline_ms(5000);
  auto reply = metrics ? client.FetchMetrics(1) : client.FetchStats(1);
  if (reply.ok() && reply.value().ok()) {
    for (const auto& [name, value] : reply.value().stats) values[name] = value;
  }
  return values;
}

OpLatencies LatenciesFromScheduled(const std::vector<Sample>& samples) {
  OpLatencies latencies;
  for (const Sample& sample : samples) {
    (sample.ok ? latencies.ok_ms : latencies.failed_ms)
        .push_back(MillisBetween(sample.scheduled, sample.received));
  }
  return latencies;
}

const char* ClassName(uint8_t cls) {
  return dvicl::server::RequestClassName(static_cast<RequestClass>(cls));
}

// Per-layer probes of the serving path, in process, over the mix.
void ProbeServingLayers(const Options& options, const Inputs& inputs,
                        const Outcome& open_loop, Spans* spans, uint32_t root,
                        Report* report) {
  const int rounds = options.tiny ? 3 : 20;
  const auto& pool = inputs.pool;

  // Server::Handle per class, on a warm in-process server.
  dvicl::server::ServerOptions server_options;
  server_options.num_threads = options.threads;
  dvicl::server::Server server(server_options);
  for (const Request& request : pool) server.Handle(request);
  std::vector<std::vector<double>> handle_ms(kComputeClasses);
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < pool.size(); ++i) {
      const uint8_t cls = static_cast<uint8_t>(pool[i].cls);
      SpanScope span(spans, std::string("server.Handle.") + ClassName(cls),
                     root, i + 1);
      const Clock::time_point start = Clock::now();
      const Reply reply = server.Handle(pool[i]);
      handle_ms[cls].push_back(MillisBetween(start, Clock::now()));
      if (CanonicalReplyBytes(reply) != inputs.reference[i]) {
        report->Wrong(std::string("in-process reply differs: ") +
                      ClassName(cls));
      }
    }
  }
  for (uint8_t cls = 0; cls < kComputeClasses; ++cls) {
    const std::string name = ClassName(cls);
    report->Set("server.handle_p50_ms." + name, Quantile(handle_ms[cls], 0.5),
                "ms", handle_ms[cls].size());
    report->Set("server.handle_p99_ms." + name,
                Quantile(handle_ms[cls], 0.99), "ms", handle_ms[cls].size());
  }

  // Post-labeling work of aut_order, orbits and ssm_count, each timed alone
  // and checked against the reference reply.
  std::vector<double> label_ms;
  std::vector<double> schreier_ms;
  std::vector<double> orbit_ms;
  std::vector<double> ssm_ms;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < pool.size(); ++i) {
      const Request& request = pool[i];
      const VertexId n = request.graph.NumVertices();
      if (request.cls != RequestClass::kAutOrder &&
          request.cls != RequestClass::kOrbits &&
          request.cls != RequestClass::kSsmCount) {
        continue;
      }
      Clock::time_point start = Clock::now();
      const dvicl::DviclResult result = dvicl::DviclCanonicalLabeling(
          request.graph, Coloring::Unit(n), dvicl::DviclOptions{});
      const double labeled_ms = MillisBetween(start, Clock::now());
      if (!result.completed()) {
        report->Wrong("probe labeling did not complete");
        continue;
      }
      const Reply& expected = inputs.replies[i];
      if (request.cls == RequestClass::kAutOrder) {
        label_ms.push_back(labeled_ms);
        SpanScope span(spans, "perm.SchreierSims", root, i + 1);
        start = Clock::now();
        dvicl::SchreierSims chain(n);
        for (const dvicl::SparseAut& generator : result.generators) {
          chain.AddGenerator(generator.ToDense(n));
        }
        const std::string order = chain.Order().ToDecimalString();
        schreier_ms.push_back(MillisBetween(start, Clock::now()));
        if (order != expected.aut_order) report->Wrong("aut_order differs");
      } else if (request.cls == RequestClass::kOrbits) {
        SpanScope span(spans, "perm.OrbitIds", root, i + 1);
        start = Clock::now();
        dvicl::PermGroup group(n);
        for (const dvicl::SparseAut& generator : result.generators) {
          group.AddGenerator(generator.ToDense(n));
        }
        const std::vector<VertexId> orbits = group.OrbitIds();
        orbit_ms.push_back(MillisBetween(start, Clock::now()));
        if (orbits != expected.orbit_ids) report->Wrong("orbits differ");
      } else {
        SpanScope span(spans, "ssm.CountSymmetricImages", root, i + 1);
        start = Clock::now();
        const dvicl::SsmIndex index(request.graph, result);
        const std::string count =
            index.CountSymmetricImages(request.query).ToDecimalString();
        ssm_ms.push_back(MillisBetween(start, Clock::now()));
        if (count != expected.ssm_count) report->Wrong("ssm_count differs");
      }
    }
  }
  report->Set("dvicl.label_ms.aut_order", Median(label_ms), "ms",
              label_ms.size());
  report->Set("perm.schreier_sims_ms", Median(schreier_ms), "ms",
              schreier_ms.size());
  report->Set("perm.orbit_ids_ms", Median(orbit_ms), "ms", orbit_ms.size());
  report->Set("ssm.count_ms", Median(ssm_ms), "ms", ssm_ms.size());

  // Wire codec: request + reply, per template.
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::string request_bytes;
  std::string reply_bytes;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < pool.size(); ++i) {
      request_bytes.clear();
      reply_bytes.clear();
      Clock::time_point start = Clock::now();
      EncodeRequest(pool[i], &request_bytes);
      EncodeReply(inputs.replies[i], &reply_bytes);
      encode_us.push_back(MillisBetween(start, Clock::now()) * 1e3);
      Request request;
      Reply reply;
      start = Clock::now();
      const bool decoded = DecodeRequest(request_bytes, &request).ok() &&
                           DecodeReply(reply_bytes, &reply).ok();
      decode_us.push_back(MillisBetween(start, Clock::now()) * 1e3);
      if (!decoded) report->Wrong("wire round trip failed");
    }
  }
  report->Set("server.protocol.encode_us", Median(encode_us), "us",
              encode_us.size());
  report->Set("server.protocol.decode_us", Median(decode_us), "us",
              decode_us.size());

  // Wire time: client round trip minus in-process Handle, on the most
  // frequent and cheapest class (canonical_form), where the server-side
  // work is small and steady.
  const uint8_t cls = static_cast<uint8_t>(RequestClass::kCanonicalForm);
  std::vector<double> rtt_ms;
  for (const Sample& sample : open_loop.samples) {
    if (sample.ok && static_cast<uint8_t>(
                         pool[sample.template_index].cls) == cls) {
      rtt_ms.push_back(MillisBetween(sample.sent, sample.received));
    }
  }
  report->Set("server.wire_ms",
              Median(rtt_ms) - Quantile(handle_ms[cls], 0.5), "ms",
              rtt_ms.size());
}

}  // namespace

int RunServeGadget(const Options& options, Report* report, Spans* spans) {
  const std::vector<dvicl::server::Endpoint> endpoints =
      dvicl::server::ParseEndpoints(options.connect);
  if (endpoints.size() != 1) {
    std::fprintf(stderr, "perfbench: serve-gadget needs --connect=HOST:PORT\n");
    return 2;
  }
  const dvicl::server::Endpoint& endpoint = endpoints[0];
  const uint32_t root =
      spans->enabled() ? spans->Begin("serve-gadget", Spans::kNoParent, 0)
                       : 0;

  // Set-up (client side): the mix and its reference replies. run.py adds
  // the server's own start time to setup_s.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int k = 0; k < kSetups; ++k) {
    inputs = Inputs();
    SpanScope span(spans, "datasets.generate", root, 0);
    const Clock::time_point start = Clock::now();
    inputs = BuildInputs(options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  report->Note("input_checksum", Hex(inputs.checksum));
  report->Note("open_loop_qps", std::to_string(kOpenLoopQps));
  report->Note("connections", std::to_string(kConnections));

  const auto stats_before = Fetch(endpoint, /*metrics=*/false);
  if (stats_before.empty()) {
    std::fprintf(stderr, "perfbench: cannot reach dvicl_server at %s\n",
                 options.connect.c_str());
    return 2;
  }

  // Phase 1: open loop. A traced run splits it into an untraced and a
  // traced half to report its own overhead.
  const double open_s = options.seconds * 0.6;
  Outcome open_loop;
  OpLatencies untraced_latencies;
  OpLatencies traced_latencies;
  if (options.trace) {
    Outcome untraced =
        RunPhase(endpoint, inputs, SubSeed(options.seed, kPhaseStreams[0]),
                 open_s / 2, /*open_loop=*/true);
    Outcome traced =
        RunPhase(endpoint, inputs, SubSeed(options.seed, kPhaseStreams[1]),
                 open_s / 2, /*open_loop=*/true);
    for (size_t i = 0; i < traced.samples.size(); ++i) {
      const Sample& sample = traced.samples[i];
      const uint32_t span = spans->Add(
          std::string("client.request.") +
              ClassName(static_cast<uint8_t>(
                  inputs.pool[sample.template_index].cls)),
          root, i + 1, sample.scheduled, sample.received);
      spans->Add("client.send_lag", span, i + 1, sample.scheduled,
                 sample.sent);
    }
    untraced_latencies = LatenciesFromScheduled(untraced.samples);
    traced_latencies = LatenciesFromScheduled(traced.samples);
    open_loop = std::move(untraced);
    open_loop.wrong += traced.wrong;
    open_loop.samples.insert(open_loop.samples.end(), traced.samples.begin(),
                             traced.samples.end());
  } else {
    open_loop =
        RunPhase(endpoint, inputs, SubSeed(options.seed, kPhaseStreams[0]),
                 open_s, /*open_loop=*/true);
  }
  const auto metrics_open = Fetch(endpoint, /*metrics=*/true);

  // Phase 2: closed loop, saturating.
  const Clock::time_point closed_start = Clock::now();
  const Outcome closed_loop =
      RunPhase(endpoint, inputs, SubSeed(options.seed, kPhaseStreams[2]),
               options.seconds - open_s, /*open_loop=*/false);
  const double closed_s = SecondsSince(closed_start);
  const auto stats_after = Fetch(endpoint, /*metrics=*/false);

  uint64_t closed_ok = 0;
  for (const Outcome* phase :
       {static_cast<const Outcome*>(&open_loop), &closed_loop}) {
    for (const Sample& sample : phase->samples) {
      ++report->attempted;
      if (sample.ok) {
        if (phase == &closed_loop) ++closed_ok;
      } else {
        ++report->failed;
      }
    }
    if (phase->wrong > 0) {
      report->Wrong(std::to_string(phase->wrong) +
                    " replies differ from the reference server");
    }
  }
  const OpLatencies latencies = LatenciesFromScheduled(open_loop.samples);

  // Labeling time of the mix's distinct graphs, in process.
  // Single-threaded, as the server labels each request. A traced run
  // alternates rounds without and with spans.
  const int label_rounds = options.trace ? 2 * kLabelRounds : kLabelRounds;
  std::vector<std::vector<double>> per_graph(inputs.graphs.size());
  std::vector<std::vector<double>> per_graph_traced(inputs.graphs.size());
  std::vector<double> pass_s;
  const dvicl::DviclOptions label_options;
  for (int round = 0; round < label_rounds; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    Spans off(false);
    double total = 0.0;
    for (size_t i = 0; i < inputs.graphs.size(); ++i) {
      const Graph& graph = *inputs.graphs[i];
      const Coloring unit = Coloring::Unit(graph.NumVertices());
      SpanScope span(traced ? spans : &off, "dvicl.DviclCanonicalLabeling",
                     root, i + 1);
      const Clock::time_point start = Clock::now();
      dvicl::DviclCanonicalLabeling(graph, unit, label_options);
      const double wall = SecondsSince(start);
      (traced ? per_graph_traced : per_graph)[i].push_back(wall);
      total += wall;
    }
    if (!traced) pass_s.push_back(total);
  }
  std::vector<double> graph_medians;
  std::vector<double> traced_medians;
  for (size_t i = 0; i < inputs.graphs.size(); ++i) {
    graph_medians.push_back(Median(per_graph[i]));
    if (!per_graph_traced[i].empty()) {
      traced_medians.push_back(Median(per_graph_traced[i]));
    }
  }

  const double success =
      static_cast<double>(report->attempted - report->failed) /
      static_cast<double>(report->attempted);
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
  report->Set("label_s", Median(graph_medians), "s", graph_medians.size());
  report->Set("ops_per_s", static_cast<double>(closed_ok) / closed_s, "1/s",
              closed_loop.samples.size());
  report->Set("p50_ms", latencies.Percentile(0.50), "ms", latencies.size());
  report->Set("p99_ms", latencies.Percentile(0.99), "ms", latencies.size());
  report->Set("success_rate", success, "ratio", report->attempted);
  report->Set("error_rate", 1.0 - success, "ratio", report->attempted);
  report->Set("datasets.generate_s", Median(setup_s), "s", setup_s.size());

  if (!options.trace) return 0;

  report->Set("bench.trace_overhead.p50_ms",
              traced_latencies.Percentile(0.5) -
                  untraced_latencies.Percentile(0.5),
              "ms", latencies.size());
  report->Set("bench.trace_overhead.label_s",
              Median(traced_medians) - Median(graph_medians), "s",
              graph_medians.size());
  std::vector<double> lag_ms;
  for (const Sample& sample : open_loop.samples) {
    lag_ms.push_back(MillisBetween(sample.scheduled, sample.sent));
  }
  report->Set("bench.send_lag_p99_ms", Quantile(lag_ms, 0.99), "ms",
              lag_ms.size());

  double queue_wait_p99_us = 0.0;
  for (uint8_t cls = 0; cls < kComputeClasses; ++cls) {
    const auto it = metrics_open.find(std::string("server.queue_wait_us.") +
                                      ClassName(cls) + ".p99");
    if (it != metrics_open.end()) {
      queue_wait_p99_us =
          std::max(queue_wait_p99_us, static_cast<double>(it->second));
    }
  }
  report->Set("server.queue_wait_p99_ms", queue_wait_p99_us / 1e3, "ms",
              open_loop.samples.size());
  const auto delta = [&](const char* key) -> double {
    const auto before = stats_before.find(key);
    const auto after = stats_after.find(key);
    if (after == stats_after.end()) return 0.0;
    return static_cast<double>(after->second) -
           (before != stats_before.end()
                ? static_cast<double>(before->second)
                : 0.0);
  };
  const double hits = delta("cache.hits");
  const double misses = delta("cache.misses");
  report->Set("server.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
              static_cast<uint64_t>(hits + misses));

  ReportLabelingProbe(ProbeLabeling(inputs.graphs, label_options, spans, root),
                      Median(pass_s), report);
  ProbeServingLayers(options, inputs, open_loop, spans, root, report);
  if (root != 0) spans->End(root);
  return 0;
}

}  // namespace perfbench
