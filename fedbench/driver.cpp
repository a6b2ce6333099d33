// fedbench_driver — the timed harness behind fedbench/run.py.
//
// Drives the simulator only through its public calls and prints one JSON
// object on its last stdout line; run.py turns it into metrics. The
// experiment is given by the usual fedclust_sim flags (--method, --clients,
// --rounds, --seed, ...) plus three driver flags:
//
//   --bench-mode=e2e    Repeats whole episodes — Federation construction +
//                       make_algorithm + FlAlgorithm::run over --rounds
//                       rounds — until --bench-seconds of wall time have
//                       passed and at least --bench-episodes ran. Reports
//                       per-episode raw timings, digests and delivery counts.
//                       No spans are recorded.
//   --bench-mode=trace  Runs one such episode (its digest, the program's own
//                       per-round wire bytes, and FedClust's clustering
//                       report), then replays the one-shot setup and one
//                       round outside-in through the public layer calls,
//                       timing each call as a span kept in memory and
//                       written out at the end.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "core/fedclust.h"
#include "core/registry.h"
#include "experiment_flags.h"
#include "fl/parallel_round.h"
#include "fl/snapshot.h"
#include "fl/stream_agg.h"
#include "obs/metrics.h"
#include "util/cpu.h"
#include "util/mem.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace fedclust;

double now_us() { return util::process_elapsed_seconds() * 1e6; }

// ---- spans ------------------------------------------------------------
// (name, start, end, parent) records, appended under a mutex from any
// thread. A Scope reads the clock after its record is appended and before
// it is closed, so the bookkeeping stays outside the timed interval. A
// disabled log never reads the clock.

struct Span {
  const char* name;
  double t0;
  double t1;
  long parent;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  long open(const char* name, long parent) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, 0.0, 0.0, parent});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long id, double t0, double t1) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].t0 = t0;
    spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, long parent = -1)
      : log_(log), id_(log.open(name, parent)), t0_(id_ >= 0 ? now_us() : 0) {}
  ~Scope() {
    if (id_ >= 0) log_.close(id_, t0_, now_us());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  long id() const { return id_; }

 private:
  SpanLog& log_;
  long id_;
  double t0_;
};

// ---- JSON output ------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += num(v[i]);
  }
  return s + "]";
}

class JsonObj {
 public:
  JsonObj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  JsonObj& num(const std::string& key, double v) {
    return raw(key, ::num(v));
  }
  JsonObj& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObj& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

// Updates the server never got: crashes, exhausted retries, missed
// deadlines, checksum rejects, and validator quarantines.
std::uint64_t undelivered_updates() {
  return counter("fault.lost_updates") + counter("fault.rejected_updates");
}

struct Options {
  std::string mode;
  std::string method;
  double seconds = 10.0;
  std::size_t min_episodes = 1;
  fl::ExperimentConfig cfg;
};

// ---- e2e: whole episodes ---------------------------------------------

struct Episode {
  double ctor_s = 0.0;  // Federation constructor + make_algorithm
  double run_s = 0.0;   // FlAlgorithm::run wall (setup() + round loop)
  std::vector<double> round_s;       // observer: train + eval per round
  std::vector<double> wire_cum;      // CommTracker wire bytes after round
  std::uint32_t crc = 0;
  double acc = 0.0;
  std::uint64_t sampled = 0;
  std::uint64_t undelivered = 0;
  std::uint64_t peak_rss_kb = 0;  // process high-water mark after the episode
  std::string json() const {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08X", crc);
    return JsonObj()
        .num("ctor_s", ctor_s)
        .num("run_s", run_s)
        .raw("round_s", num_array(round_s))
        .raw("wire_cum", num_array(wire_cum))
        .str("crc", crc_hex)
        .num("acc", acc)
        .num("sampled", static_cast<double>(sampled))
        .num("undelivered", static_cast<double>(undelivered))
        .num("peak_rss_kb", static_cast<double>(peak_rss_kb))
        .done();
  }
};

// One episode on a fresh Federation. When non-null, keep_fed/keep_algo
// receive the federation and algorithm so the trace mode can replay on them,
// and `log` records the constructor as the setup.data span.
Episode run_episode(const Options& o,
                    std::unique_ptr<fl::Federation>* keep_fed = nullptr,
                    std::unique_ptr<fl::FlAlgorithm>* keep_algo = nullptr,
                    SpanLog* log = nullptr) {
  Episode ep;
  const std::uint64_t undelivered0 = undelivered_updates();
  util::Stopwatch sw;
  std::unique_ptr<fl::Federation> fed;
  {
    SpanLog off(false);
    Scope s(log != nullptr ? *log : off, "setup.data");
    fed = std::make_unique<fl::Federation>(o.cfg);
  }
  std::unique_ptr<fl::FlAlgorithm> algo = core::make_algorithm(o.method, *fed);
  ep.ctor_s = sw.seconds();
  fl::Federation& f = *fed;
  algo->set_round_observer([&](const fl::RoundRecord&, double seconds) {
    ep.round_s.push_back(seconds);
    ep.wire_cum.push_back(static_cast<double>(f.comm().wire_bytes()));
  });
  sw.reset();
  const fl::Trace trace = algo->run();
  ep.run_s = sw.seconds();
  algo->set_round_observer(nullptr);
  ep.crc = algo->state_crc32c();
  ep.acc = trace.final_accuracy();
  for (std::size_t r = 0; r < o.cfg.rounds; ++r) {
    ep.sampled += fed->sample_round(r).size();
  }
  ep.undelivered = undelivered_updates() - undelivered0;
  ep.peak_rss_kb = util::peak_rss_kb();
  if (keep_fed != nullptr) *keep_fed = std::move(fed);
  if (keep_algo != nullptr) *keep_algo = std::move(algo);
  return ep;
}

// ---- trace: outside-in replays ---------------------------------------

struct ReplayOut {
  double wall_s = 0.0;
  double train_s = 0.0;
  std::size_t cohort = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t gemm_madds = 0;
  fl::ClientStore::CacheStats store;
  std::vector<std::vector<float>> partials;  // classifier weights, per slot
};

// Round 0 replayed through the public layer calls in the order
// cluster_fedavg_round / FedAvg::round make them: sample, then per client
// pull the cluster model over the wire, acquire the client from the store,
// train, deliver the update over the wire, and fold it into the cluster's
// streaming aggregator; then finish the aggregates and run the evaluation
// sweep. `assignment` null means one global model (FedAvg).
ReplayOut replay_round(fl::Federation& fed,
                       const std::vector<std::size_t>* assignment,
                       std::size_t n_models, SpanLog& log,
                       bool keep_partials) {
  constexpr std::size_t kRound = 0;
  ReplayOut out;
  const std::size_t p = fed.model_size();
  const auto cluster_of = [&](std::size_t c) {
    return assignment != nullptr ? (*assignment)[c] : 0;
  };
  std::vector<std::vector<float>> models(n_models, fed.init_params());
  const std::uint64_t wire0 = fed.comm().wire_bytes();
  const std::uint64_t payload0 = fed.comm().payload_bytes();
  const std::uint64_t madds0 = counter("gemm.madds");
  const fl::ClientStore::CacheStats store0 = fed.store_stats();
  const util::Stopwatch wall;

  Scope root(log, "round");
  std::vector<std::size_t> sampled;
  {
    Scope s(log, "round.sample", root.id());
    sampled = fed.sample_round(kRound);
  }
  out.cohort = sampled.size();
  std::vector<std::size_t> slot(sampled.size(), 0);
  std::vector<std::size_t> members(n_models, 0);
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    slot[i] = members[cluster_of(sampled[i])]++;
  }
  std::vector<std::unique_ptr<fl::StreamingAggregator>> aggs(n_models);
  for (std::size_t k = 0; k < n_models; ++k) {
    if (members[k] > 0) {
      aggs[k] = std::make_unique<fl::StreamingAggregator>(
          members[k], p, fed.int8_aggregation_active());
    }
  }
  if (keep_partials) out.partials.resize(sampled.size());
  {
    Scope s(log, "round.train", root.id());
    const util::Stopwatch train;
    fl::ParallelRoundRunner(fed).for_each_index(
        sampled.size(), [&](std::size_t i, nn::Model& ws) {
          const std::size_t c = sampled[i];
          const std::size_t k = cluster_of(c);
          {
            Scope w(log, "wire.pull", s.id());
            ws.set_flat_params(fed.pull_model(models[k], kRound, p));
          }
          std::shared_ptr<const fl::SimClient> client;
          {
            Scope a(log, "store.acquire", s.id());
            client = fed.client(c);
          }
          {
            Scope t(log, "nn.train", s.id());
            client->train(ws, fed.cfg().local, fed.train_rng(c, kRound));
          }
          std::vector<float> params = ws.flat_params();
          if (keep_partials) out.partials[i] = ws.classifier_params();
          std::vector<std::uint8_t> encoded;
          bool delivered = false;
          {
            Scope d(log, "wire.deliver", s.id());
            delivered = fed.deliver_update(
                c, kRound, params, p,
                fed.int8_aggregation_active() ? &encoded : nullptr);
          }
          Scope g(log, "agg.submit", s.id());
          if (delivered) {
            aggs[k]->submit(slot[i], params.data(), params.size(),
                            static_cast<double>(client->n_train()),
                            std::move(encoded));
          } else {
            aggs[k]->skip(slot[i]);
          }
        });
    out.train_s = train.seconds();
  }
  {
    Scope s(log, "agg.finish", root.id());
    for (std::size_t k = 0; k < n_models; ++k) {
      if (aggs[k]) aggs[k]->finish(models[k]);
    }
  }
  {
    Scope s(log, "eval.sweep", root.id());
    fed.average_local_accuracy(
        [&](std::size_t i) -> const std::vector<float>& {
          return models[cluster_of(i)];
        });
  }
  out.wall_s = wall.seconds();
  out.wire_bytes = fed.comm().wire_bytes() - wire0;
  out.payload_bytes = fed.comm().payload_bytes() - payload0;
  out.gemm_madds = counter("gemm.madds") - madds0;
  const fl::ClientStore::CacheStats store1 = fed.store_stats();
  out.store.hits = store1.hits - store0.hits;
  out.store.misses = store1.misses - store0.misses;
  return out;
}

// FedClust's round-0 warmup sweep replayed through the same calls
// FedClust::setup makes (exact path): the θ0 broadcast round-trips the wire
// once, every client is billed its download, trains the warmup epochs from
// the decoded broadcast, and uploads its classifier weights.
std::vector<std::vector<float>> replay_warmup(fl::Federation& fed,
                                              SpanLog& log, long parent) {
  constexpr std::size_t kWarmupRound = 0xFEDC0000;
  const std::size_t n = fed.n_clients();
  const std::size_t p = fed.model_size();
  const fl::ExperimentConfig& cfg = fed.cfg();
  fl::LocalTrainOptions warmup = cfg.local;
  warmup.epochs = std::max<std::size_t>(1, cfg.algo.fedclust_init_epochs);
  if (cfg.algo.fedclust_init_lr > 0.0f) warmup.lr = cfg.algo.fedclust_init_lr;

  Scope s(log, "setup.warmup", parent);
  const std::vector<float> rx_init = fed.through_wire(
      fl::wire::MessageKind::kModelPull, fed.init_params(),
      fl::wire::kServerSender, kWarmupRound);
  std::vector<std::vector<float>> partials(n);
  fl::ParallelRoundRunner(fed).for_each_index(
      n, [&](std::size_t c, nn::Model& ws) {
        {
          Scope w(log, "wire.pull", s.id());
          fed.bill_download(p);
        }
        std::shared_ptr<const fl::SimClient> client;
        {
          Scope a(log, "store.acquire", s.id());
          client = fed.client(c);
        }
        {
          Scope t(log, "nn.train", s.id());
          ws.set_flat_params(rx_init);
          client->train(ws, warmup, fed.train_rng(c, kWarmupRound));
          partials[c] = ws.classifier_params();
        }
        Scope u(log, "wire.upload", s.id());
        partials[c] = fed.upload_payload(fl::wire::MessageKind::kWarmupWeights,
                                         partials[c], c, kWarmupRound);
      });
  return partials;
}

// HC(M, λ) as FedClust::setup cuts it.
std::vector<std::size_t> cut_dendrogram(const fl::ExperimentConfig& cfg,
                                        const tensor::Tensor& proximity) {
  const auto dendro = clustering::agglomerative(
      proximity, clustering::linkage_from_string(cfg.algo.fedclust_linkage));
  if (cfg.algo.fedclust_k > 0) {
    return clustering::cut_to_k(dendro, cfg.algo.fedclust_k);
  }
  float lambda = cfg.algo.fedclust_lambda;
  if (lambda < 0.0f) lambda = clustering::gap_threshold(dendro);
  return clustering::cut_by_threshold(dendro, lambda);
}

bool same_tensor(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> t(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_us();
    fn();
    t[i] = now_us() - t0;
  }
  return median(t);
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string s = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) s += ",";
    s += "[\"" + std::string(spans[i].name) + "\"," + num(spans[i].t0) + "," +
         num(spans[i].t1) + "," + num(static_cast<double>(spans[i].parent)) +
         "]";
  }
  return s + "]";
}

std::string run_trace(const Options& o, std::size_t threads) {
  // The replays mirror FedAvg's and exact FedClust's calls only.
  if ((o.method != "FedAvg" && o.method != "FedClust") ||
      o.cfg.landmarks != 0 || o.cfg.rounds < 2) {
    throw std::invalid_argument(
        "trace mode replays FedAvg or exact FedClust over >= 2 rounds");
  }
  SpanLog log(true);
  std::unique_ptr<fl::Federation> fed_owner;
  std::unique_ptr<fl::FlAlgorithm> algo;
  const Episode ep = run_episode(o, &fed_owner, &algo, &log);
  fl::Federation& fed = *fed_owner;
  const std::size_t p = fed.model_size();
  JsonObj checks;

  // The program's per-round wire bytes (every fault-free round of these
  // workloads bills the same), the count the replay must reproduce.
  const double program_wire = (ep.wire_cum.back() - ep.wire_cum.front()) /
                              static_cast<double>(ep.wire_cum.size() - 1);

  // Setup replay (FedClust) against the run's own clustering report.
  const auto* fedclust = dynamic_cast<const core::FedClust*>(algo.get());
  const std::vector<std::size_t>* assignment = nullptr;
  std::size_t n_models = 1;
  if (fedclust != nullptr) {
    const core::ClusteringReport& report = fedclust->report();
    Scope root(log, "setup.cluster");
    const auto partials = replay_warmup(fed, log, root.id());
    tensor::Tensor proximity;
    {
      Scope s(log, "cluster.proximity", root.id());
      proximity = clustering::l2_distance_matrix(partials);
    }
    std::vector<std::size_t> replayed;
    {
      Scope s(log, "cluster.dendrogram", root.id());
      replayed = cut_dendrogram(fed.cfg(), report.proximity);
    }
    checks.boolean("proximity_equal", same_tensor(proximity, report.proximity))
        .boolean("assignment_equal", replayed == report.assignment);
    assignment = &report.assignment;
    n_models = report.n_clusters;
  }

  // The recorded round replay; its spans feed the per-layer table.
  const ReplayOut main = replay_round(fed, assignment, n_models, log,
                                      fedclust == nullptr);
  checks.boolean("wire_bytes_equal",
                 static_cast<double>(main.wire_bytes) == program_wire);

  // FedAvg workloads exercise the clustering layer on the replayed cohort's
  // classifier weights: what re-clustering that cohort would cost.
  if (fedclust == nullptr) {
    Scope root(log, "cohort.cluster");
    tensor::Tensor proximity;
    {
      Scope s(log, "cluster.proximity", root.id());
      proximity = clustering::l2_distance_matrix(main.partials);
    }
    Scope s(log, "cluster.dendrogram", root.id());
    cut_dendrogram(fed.cfg(), proximity);
  }

  // Tracing overhead: alternate untraced and traced replays of the round.
  std::vector<double> untraced_s, traced_s, train4_s;
  for (int i = 0; i < 3; ++i) {
    SpanLog off(false), scratch(true);
    const ReplayOut u = replay_round(fed, assignment, n_models, off, false);
    untraced_s.push_back(u.wall_s);
    train4_s.push_back(u.train_s);
    traced_s.push_back(
        replay_round(fed, assignment, n_models, scratch, false).wall_s);
  }

  // Single-thread window: the round's fan-out at 1 thread, and the nn
  // layer on one fixed client through the shared workspace.
  util::reset_global_pool(1);
  double train1_s = 0.0;
  {
    SpanLog off(false);
    train1_s = replay_round(fed, assignment, n_models, off, false).train_s;
  }
  const auto client = fed.client(fed.sample_round(0).front());
  nn::Model& ws = fed.workspace();
  const double train_us = median_us(5, [&] {
    ws.set_flat_params(fed.init_params());
    client->train(ws, fed.cfg().local, fed.train_rng(client->id(), 0));
  });
  const double eval_us = median_us(5, [&] { client->evaluate(ws); });
  util::reset_global_pool(threads);

  // Wire layer: one model envelope with the workload codec.
  const std::vector<float>& model = fed.init_params();
  std::vector<std::uint8_t> bytes;
  const double encode_us = median_us(301, [&] {
    bytes = fl::wire::encode(fl::wire::MessageKind::kUpdatePush,
                             fed.cfg().codec, 1, 0, model);
  });
  const double decode_us =
      median_us(301, [&] { fl::wire::decode(bytes); });

  const double lookups =
      static_cast<double>(main.store.hits + main.store.misses);
  const JsonObj direct =
      JsonObj()
          .num("store.miss_share",
               lookups > 0 ? static_cast<double>(main.store.misses) / lookups
                           : 0.0)
          .num("round.speedup_4v1", train1_s / median(train4_s))
          .num("nn.client_train_ms", train_us / 1e3)
          .num("nn.client_eval_ms", eval_us / 1e3)
          .num("tensor.gemm_madds_per_round",
               static_cast<double>(main.gemm_madds))
          .num("wire.encode_us", encode_us)
          .num("wire.decode_us", decode_us)
          .num("wire.compression", static_cast<double>(main.payload_bytes) /
                                       static_cast<double>(main.wire_bytes))
          .num("obs.overhead_pct",
               100.0 * (median(traced_s) / median(untraced_s) - 1.0));

  return JsonObj()
      .str("mode", "trace")
      .raw("episodes", "[" + ep.json() + "]")
      .num("model_floats", static_cast<double>(p))
      .num("cohort", static_cast<double>(main.cohort))
      .num("program_wire_bytes_per_round", program_wire)
      .num("replay_wire_bytes", static_cast<double>(main.wire_bytes))
      .raw("checks", checks.done())
      .raw("direct", direct.done())
      .raw("spans", spans_json(log.spans()))
      .done();
}

std::string run_e2e(const Options& o) {
  // Never start an episode the 180 s run budget could not finish.
  constexpr double kMaxSeconds = 120.0;
  std::string episodes = "[";
  const util::Stopwatch total;
  std::size_t n = 0;
  double last_s = 0.0;
  while (n < o.min_episodes ||
         (total.seconds() < o.seconds &&
          total.seconds() + last_s < kMaxSeconds)) {
    const util::Stopwatch sw;
    const Episode ep = run_episode(o);
    last_s = sw.seconds();
    if (n++ > 0) episodes += ",";
    episodes += ep.json();
  }
  return JsonObj().str("mode", "e2e").raw("episodes", episodes + "]").done();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args("fedbench_driver",
                         "timed episodes / outside-in layer replays of one "
                         "experiment (see fedbench/README.md)");
    tools::add_experiment_options(args);
    args.add_option("bench-mode", "e2e|trace", "e2e");
    args.add_option("bench-seconds", "e2e: minimum measured wall seconds",
                    "10");
    args.add_option("bench-episodes", "e2e: minimum episode count", "1");
    if (!args.parse(argc, argv)) return 0;
    Options o;
    o.mode = args.str("bench-mode");
    o.method = args.str("method");
    o.seconds = args.real("bench-seconds");
    o.min_episodes = static_cast<std::size_t>(args.integer("bench-episodes"));
    o.cfg = tools::build_experiment_config(args);

    // Counters stay on in both modes: the fault.* ones decide delivery and
    // the trace mode reads gemm.madds.
    obs::MetricsRegistry::instance().set_enabled(true);
    const std::size_t threads = util::global_pool().size() + 1;
    std::string body;
    if (o.mode == "e2e") {
      body = run_e2e(o);
    } else if (o.mode == "trace") {
      body = run_trace(o, threads);
    } else {
      throw std::invalid_argument("unknown --bench-mode " + o.mode);
    }
    // Splice the environment into the mode's object.
    body.pop_back();
    body += "," + JsonObj()
                      .str("isa", util::isa_name(util::active_isa()))
                      .num("threads", static_cast<double>(threads))
                      .str("git_describe", fl::build_git_describe())
                      .done()
                      .substr(1);
    std::cout << body << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fedbench_driver: " << e.what() << "\n";
    return 1;
  }
}
