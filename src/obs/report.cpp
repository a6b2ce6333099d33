#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace fedclust::obs::report {

namespace {

constexpr std::size_t kMaxPhases = 14;

// Shortest round-trippable-enough double rendering: %.10g keeps every
// digit the report math can produce while staying deterministic across
// runs of the same inputs.
std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string fmt_fixed(double v, int decimals) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("fedclust_report: cannot read " + path);
  }
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::uint64_t u64(const json::Value& obj, const std::string& key) {
  return static_cast<std::uint64_t>(obj.number_or(key, 0.0));
}

void ingest_journal(RunReport& r, const std::string& journal_text,
                    std::map<std::uint64_t, RoundStats>& rounds,
                    std::map<std::uint64_t, ClientStats>& clients) {
  for (const json::Value& row : json::parse_lines(journal_text)) {
    if (row.find("journal") != nullptr) {
      r.codec = row.string_or("codec", r.codec);
      continue;
    }
    const std::uint64_t round = u64(row, "round");
    const std::uint64_t client = u64(row, "client");
    const std::string ev = row.string_or("ev", "");
    // Transport rows carry a worker id in the client slot and may land on
    // rounds with no cohort; tally them before the per-round/per-client
    // maps so they never fabricate empty entries there.
    if (ev == "connect") {
      ++r.transport.connects;
      continue;
    } else if (ev == "reconnect") {
      ++r.transport.reconnects;
      continue;
    } else if (ev == "heartbeat_missed") {
      ++r.transport.heartbeat_missed;
      continue;
    } else if (ev == "worker_restart") {
      ++r.transport.worker_restarts;
      continue;
    } else if (ev == "frame_reject") {
      ++r.transport.frame_rejects;
      continue;
    }
    RoundStats& rs = rounds[round];
    rs.round = round;
    ClientStats& cs = clients[client];
    cs.client = client;
    if (ev == "sampled") {
      ++rs.sampled;
      ++cs.rounds_sampled;
    } else if (ev == "dropped") {
      ++r.faults.dropped;
    } else if (ev == "cluster") {
      cs.cluster = static_cast<std::int64_t>(u64(row, "cluster"));
    } else if (ev == "download") {
      const std::uint64_t payload = u64(row, "payload_bytes");
      const std::uint64_t wire = u64(row, "wire_bytes");
      rs.download_wire_bytes += wire;
      cs.download_wire_bytes += wire;
      r.download_payload_bytes += payload;
      r.download_wire_bytes += wire;
    } else if (ev == "upload") {
      const std::uint64_t payload = u64(row, "payload_bytes");
      const std::uint64_t wire = u64(row, "wire_bytes");
      rs.upload_wire_bytes += wire;
      cs.upload_wire_bytes += wire;
      r.upload_payload_bytes += payload;
      r.upload_wire_bytes += wire;
    } else if (ev == "train") {
      const std::uint64_t us = u64(row, "train_us");
      rs.train_us_total += us;
      cs.train_us_total += us;
      r.train_us_total += us;
      if (us >= rs.train_us_max) {
        // >= so the tie at 0 µs (wall clock off) still names a client.
        rs.train_us_max = us;
        rs.critical_client = static_cast<std::int64_t>(client);
      }
      cs.train_us_max = std::max(cs.train_us_max, us);
    } else if (ev == "crash") {
      ++r.faults.crashes;
    } else if (ev == "straggler") {
      ++r.faults.stragglers;
      ++cs.straggler_events;
      cs.max_delay_milli =
          std::max(cs.max_delay_milli, u64(row, "delay_milli"));
    } else if (ev == "retry") {
      r.faults.retries += u64(row, "retries");
    } else if (ev == "comm_failed") {
      ++r.faults.comm_failed;
    } else if (ev == "deadline_missed") {
      ++r.faults.deadline_missed;
    } else if (ev == "corrupt") {
      ++r.faults.corrupt;
    } else if (ev == "checksum_reject") {
      ++r.faults.checksum_rejects;
    } else if (ev == "quarantine") {
      ++r.faults.quarantined;
    } else if (ev == "delivered") {
      ++rs.delivered;
      ++cs.delivered;
    } else if (ev == "eval") {
      cs.final_acc = static_cast<double>(u64(row, "acc_micro")) / 1e6;
    }
    // Unknown events are skipped: newer journals stay readable.
  }
}

void ingest_metrics(RunReport& r, const std::string& metrics_text,
                    std::map<std::uint64_t, RoundStats>& rounds) {
  for (const json::Value& line : json::parse_lines(metrics_text)) {
    const json::Value* round = line.find("round");
    if (round == nullptr) continue;
    const auto idx = static_cast<std::uint64_t>(round->number);
    RoundStats& rs = rounds[idx];
    rs.round = idx;
    rs.acc = line.number_or("acc", rs.acc);
    rs.round_seconds = line.number_or("round_seconds", rs.round_seconds);
    r.final_acc = line.number_or("acc", r.final_acc);
    // Registered counters/gauges ride into every line; keep the max RSS
    // sample and the latest cumulative cache counters.
    r.peak_rss_kb = std::max(
        r.peak_rss_kb,
        static_cast<std::uint64_t>(line.number_or("mem.peak_rss_kb", 0.0)));
    r.cache_hits = static_cast<std::uint64_t>(line.number_or(
        "store.cache_hits", static_cast<double>(r.cache_hits)));
    r.cache_misses = static_cast<std::uint64_t>(line.number_or(
        "store.cache_misses", static_cast<double>(r.cache_misses)));
    r.cache_evictions = static_cast<std::uint64_t>(line.number_or(
        "store.cache_evictions", static_cast<double>(r.cache_evictions)));
    // Landmark-sketch counters (fl/landmark.h); stay zero for exact runs.
    r.clustering.landmarks = static_cast<std::uint64_t>(line.number_or(
        "cluster.landmark.count", static_cast<double>(r.clustering.landmarks)));
    r.clustering.clusters = static_cast<std::uint64_t>(
        line.number_or("cluster.landmark.clusters",
                       static_cast<double>(r.clustering.clusters)));
    r.clustering.assign_batches = static_cast<std::uint64_t>(
        line.number_or("cluster.landmark.batches",
                       static_cast<double>(r.clustering.assign_batches)));
    r.clustering.assigned = static_cast<std::uint64_t>(
        line.number_or("cluster.landmark.assigned",
                       static_cast<double>(r.clustering.assigned)));
  }
}

void ingest_trace(RunReport& r, const std::string& trace_text) {
  const json::Value doc = json::parse(trace_text);
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("fedclust_report: trace has no traceEvents");
  }
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const json::Value& ev : events->array) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "I" && ev.string_or("name", "") == "ring_overflow") {
      if (const json::Value* args = ev.find("args")) {
        r.trace_dropped += u64(*args, "dropped");
      }
      continue;
    }
    if (ph != "X") continue;
    Agg& agg = by_name[ev.string_or("name", "?")];
    ++agg.count;
    agg.total_us += static_cast<std::uint64_t>(ev.number_or("dur", 0.0));
  }
  for (const auto& [name, agg] : by_name) {
    r.phases.push_back({name, agg.count, agg.total_us});
  }
  std::sort(r.phases.begin(), r.phases.end(),
            [](const PhaseStats& x, const PhaseStats& y) {
              if (x.total_us != y.total_us) return x.total_us > y.total_us;
              return x.name < y.name;
            });
  if (r.phases.size() > kMaxPhases) r.phases.resize(kMaxPhases);
}

}  // namespace

RunReport build_report(const std::string& journal_text,
                       const std::string& metrics_text,
                       const std::string& trace_text, std::size_t top_k) {
  RunReport r;
  std::map<std::uint64_t, RoundStats> rounds;
  std::map<std::uint64_t, ClientStats> clients;
  ingest_journal(r, journal_text, rounds, clients);
  if (!metrics_text.empty()) ingest_metrics(r, metrics_text, rounds);
  if (!trace_text.empty()) ingest_trace(r, trace_text);

  for (const auto& [idx, rs] : rounds) {
    if (rs.sampled > 0) ++r.rounds;
    r.sampled_total += rs.sampled;
    r.delivered_total += rs.delivered;
    r.per_round.push_back(rs);
  }

  // Fall back to the journal's own eval rows when no metrics file rode
  // along: the mean last-eval accuracy is the same quantity the per-round
  // "acc" field reports.
  if (r.final_acc < 0.0) {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& [id, cs] : clients) {
      if (cs.final_acc >= 0.0) {
        sum += cs.final_acc;
        ++n;
      }
    }
    if (n > 0) r.final_acc = sum / static_cast<double>(n);
  }

  std::vector<ClientStats> ranked;
  for (const auto& [id, cs] : clients) {
    if (cs.rounds_sampled > 0 || cs.straggler_events > 0) {
      ranked.push_back(cs);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ClientStats& x, const ClientStats& y) {
              if (x.straggler_events != y.straggler_events) {
                return x.straggler_events > y.straggler_events;
              }
              if (x.max_delay_milli != y.max_delay_milli) {
                return x.max_delay_milli > y.max_delay_milli;
              }
              if (x.train_us_max != y.train_us_max) {
                return x.train_us_max > y.train_us_max;
              }
              return x.client < y.client;
            });
  if (ranked.size() > top_k) ranked.resize(top_k);
  r.stragglers = std::move(ranked);

  std::map<std::uint64_t, ClusterStats> by_cluster;
  std::map<std::uint64_t, std::pair<double, std::uint64_t>> cluster_acc;
  for (const auto& [id, cs] : clients) {
    if (cs.cluster < 0) continue;
    const auto k = static_cast<std::uint64_t>(cs.cluster);
    ClusterStats& ks = by_cluster[k];
    ks.cluster = k;
    ++ks.clients;
    ks.upload_wire_bytes += cs.upload_wire_bytes;
    ks.download_wire_bytes += cs.download_wire_bytes;
    if (cs.final_acc >= 0.0) {
      cluster_acc[k].first += cs.final_acc;
      cluster_acc[k].second += 1;
    }
  }
  for (auto& [k, ks] : by_cluster) {
    const auto& [sum, n] = cluster_acc[k];
    if (n > 0) ks.mean_acc = sum / static_cast<double>(n);
    r.clusters.push_back(ks);
  }

  // Full partition for agreement comparisons: the clients map is ordered,
  // so the pairs come out sorted by client id.
  for (const auto& [id, cs] : clients) {
    if (cs.cluster >= 0) {
      r.clustering.assignment.emplace_back(
          id, static_cast<std::uint64_t>(cs.cluster));
    }
  }
  return r;
}

RunReport build_report_from_files(const std::string& journal_path,
                                  const std::string& metrics_path,
                                  const std::string& trace_path,
                                  std::size_t top_k) {
  return build_report(
      read_file(journal_path),
      metrics_path.empty() ? std::string() : read_file(metrics_path),
      trace_path.empty() ? std::string() : read_file(trace_path), top_k);
}

std::string to_json(const RunReport& r) {
  std::ostringstream os;
  os << "{\"report_version\":" << r.version << ",\"codec\":\"" << r.codec
     << "\",\"rounds\":" << r.rounds << ",\"final_acc\":" << jnum(r.final_acc)
     << ",\"totals\":{\"sampled\":" << r.sampled_total
     << ",\"delivered\":" << r.delivered_total
     << ",\"upload_payload_bytes\":" << r.upload_payload_bytes
     << ",\"upload_wire_bytes\":" << r.upload_wire_bytes
     << ",\"download_payload_bytes\":" << r.download_payload_bytes
     << ",\"download_wire_bytes\":" << r.download_wire_bytes
     << ",\"train_us_total\":" << r.train_us_total
     << "},\"memory\":{\"peak_rss_kb\":" << r.peak_rss_kb
     << ",\"cache_hits\":" << r.cache_hits
     << ",\"cache_misses\":" << r.cache_misses
     << ",\"cache_evictions\":" << r.cache_evictions << "},\"per_round\":[";
  for (std::size_t i = 0; i < r.per_round.size(); ++i) {
    const RoundStats& rs = r.per_round[i];
    os << (i ? "," : "") << "{\"round\":" << rs.round
       << ",\"sampled\":" << rs.sampled << ",\"delivered\":" << rs.delivered
       << ",\"train_us_total\":" << rs.train_us_total
       << ",\"train_us_max\":" << rs.train_us_max
       << ",\"critical_client\":" << rs.critical_client
       << ",\"upload_wire_bytes\":" << rs.upload_wire_bytes
       << ",\"download_wire_bytes\":" << rs.download_wire_bytes
       << ",\"acc\":" << jnum(rs.acc)
       << ",\"round_seconds\":" << jnum(rs.round_seconds) << "}";
  }
  os << "],\"stragglers\":[";
  for (std::size_t i = 0; i < r.stragglers.size(); ++i) {
    const ClientStats& cs = r.stragglers[i];
    os << (i ? "," : "") << "{\"client\":" << cs.client
       << ",\"rounds_sampled\":" << cs.rounds_sampled
       << ",\"delivered\":" << cs.delivered
       << ",\"straggler_events\":" << cs.straggler_events
       << ",\"max_delay_milli\":" << cs.max_delay_milli
       << ",\"train_us_total\":" << cs.train_us_total
       << ",\"train_us_max\":" << cs.train_us_max
       << ",\"upload_wire_bytes\":" << cs.upload_wire_bytes
       << ",\"download_wire_bytes\":" << cs.download_wire_bytes
       << ",\"cluster\":" << cs.cluster
       << ",\"final_acc\":" << jnum(cs.final_acc) << "}";
  }
  os << "],\"clusters\":[";
  for (std::size_t i = 0; i < r.clusters.size(); ++i) {
    const ClusterStats& ks = r.clusters[i];
    os << (i ? "," : "") << "{\"cluster\":" << ks.cluster
       << ",\"clients\":" << ks.clients
       << ",\"mean_acc\":" << jnum(ks.mean_acc)
       << ",\"upload_wire_bytes\":" << ks.upload_wire_bytes
       << ",\"download_wire_bytes\":" << ks.download_wire_bytes << "}";
  }
  os << "],\"clustering\":{\"landmarks\":" << r.clustering.landmarks
     << ",\"clusters\":" << r.clustering.clusters
     << ",\"assign_batches\":" << r.clustering.assign_batches
     << ",\"assigned\":" << r.clustering.assigned << ",\"assignment\":[";
  for (std::size_t i = 0; i < r.clustering.assignment.size(); ++i) {
    const auto& [c, k] = r.clustering.assignment[i];
    os << (i ? "," : "") << "[" << c << "," << k << "]";
  }
  os << "]},\"faults\":{\"dropped\":" << r.faults.dropped
     << ",\"crashes\":" << r.faults.crashes
     << ",\"stragglers\":" << r.faults.stragglers
     << ",\"retries\":" << r.faults.retries
     << ",\"comm_failed\":" << r.faults.comm_failed
     << ",\"deadline_missed\":" << r.faults.deadline_missed
     << ",\"corrupt\":" << r.faults.corrupt
     << ",\"checksum_rejects\":" << r.faults.checksum_rejects
     << ",\"quarantined\":" << r.faults.quarantined
     << "},\"transport\":{\"connects\":" << r.transport.connects
     << ",\"reconnects\":" << r.transport.reconnects
     << ",\"heartbeat_missed\":" << r.transport.heartbeat_missed
     << ",\"worker_restarts\":" << r.transport.worker_restarts
     << ",\"frame_rejects\":" << r.transport.frame_rejects
     << "},\"trace_dropped\":" << r.trace_dropped << ",\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseStats& ps = r.phases[i];
    os << (i ? "," : "") << "{\"name\":\"" << ps.name
       << "\",\"count\":" << ps.count << ",\"total_us\":" << ps.total_us
       << "}";
  }
  os << "]}\n";
  return os.str();
}

std::string to_markdown(const RunReport& r) {
  std::ostringstream os;
  os << "# fedclust run report\n\n";
  os << "* codec: `" << r.codec << "`\n";
  os << "* rounds: " << r.rounds << "\n";
  os << "* final accuracy: "
     << (r.final_acc < 0.0 ? std::string("n/a")
                           : fmt_fixed(r.final_acc * 100.0, 2) + "%")
     << "\n";
  os << "* clients sampled/delivered: " << r.sampled_total << "/"
     << r.delivered_total << "\n";
  os << "* wire bytes up/down: " << r.upload_wire_bytes << "/"
     << r.download_wire_bytes << " (payload " << r.upload_payload_bytes
     << "/" << r.download_payload_bytes << ")\n";
  os << "* total local-training wall time: "
     << fmt_fixed(static_cast<double>(r.train_us_total) / 1e6, 3) << " s\n";
  if (r.peak_rss_kb > 0) {
    os << "* peak RSS: " << r.peak_rss_kb << " KiB\n";
  }
  if (r.cache_hits + r.cache_misses + r.cache_evictions > 0) {
    os << "* client-store cache: " << r.cache_hits << " hits, "
       << r.cache_misses << " misses, " << r.cache_evictions
       << " evictions\n";
  }

  os << "\n## Per-round\n\n";
  os << "| round | sampled | delivered | train ms | critical path ms "
        "(client) | up wire B | down wire B | acc |\n";
  os << "|------:|--------:|----------:|---------:|----------------:|"
        "---------:|-----------:|----:|\n";
  for (const RoundStats& rs : r.per_round) {
    os << "| " << rs.round << " | " << rs.sampled << " | " << rs.delivered
       << " | " << fmt_fixed(static_cast<double>(rs.train_us_total) / 1e3, 1)
       << " | " << fmt_fixed(static_cast<double>(rs.train_us_max) / 1e3, 1)
       << " (" << rs.critical_client << ") | " << rs.upload_wire_bytes
       << " | " << rs.download_wire_bytes << " | "
       << (rs.acc < 0.0 ? std::string("-")
                        : fmt_fixed(rs.acc * 100.0, 2) + "%")
       << " |\n";
  }

  if (!r.stragglers.empty()) {
    os << "\n## Top straggler clients\n\n";
    os << "| client | straggler events | worst delay | rounds | train ms "
          "(max) | delivered |\n";
    os << "|-------:|-----------------:|------------:|-------:|"
          "--------------:|----------:|\n";
    for (const ClientStats& cs : r.stragglers) {
      os << "| " << cs.client << " | " << cs.straggler_events << " | "
         << fmt_fixed(static_cast<double>(cs.max_delay_milli) / 1e3, 2)
         << "x | " << cs.rounds_sampled << " | "
         << fmt_fixed(static_cast<double>(cs.train_us_max) / 1e3, 1)
         << " | " << cs.delivered << " |\n";
    }
  }

  if (!r.clusters.empty()) {
    os << "\n## Clusters\n\n";
    os << "| cluster | clients | mean acc | up wire B | down wire B |\n";
    os << "|--------:|--------:|---------:|----------:|------------:|\n";
    for (const ClusterStats& ks : r.clusters) {
      os << "| " << ks.cluster << " | " << ks.clients << " | "
         << (ks.mean_acc < 0.0 ? std::string("-")
                               : fmt_fixed(ks.mean_acc * 100.0, 2) + "%")
         << " | " << ks.upload_wire_bytes << " | " << ks.download_wire_bytes
         << " |\n";
    }
  }

  if (r.clustering.any()) {
    os << "\n## Clustering\n\n";
    os << "* clients assigned (journaled partition): "
       << r.clustering.assignment.size() << "\n";
    if (r.clustering.landmarks > 0) {
      os << "* landmark sketch: " << r.clustering.landmarks
         << " landmarks -> " << r.clustering.clusters << " clusters, "
         << r.clustering.assigned << " clients streamed through "
         << r.clustering.assign_batches << " nearest-landmark batches\n";
    } else {
      os << "* exact clustering (no landmark sketch)\n";
    }
  }

  os << "\n## Faults\n\n";
  os << "| class | count |\n|-------|------:|\n";
  os << "| pre-round dropouts | " << r.faults.dropped << " |\n";
  os << "| post-train crashes | " << r.faults.crashes << " |\n";
  os << "| stragglers | " << r.faults.stragglers << " |\n";
  os << "| retransmissions | " << r.faults.retries << " |\n";
  os << "| comm failures | " << r.faults.comm_failed << " |\n";
  os << "| deadline misses | " << r.faults.deadline_missed << " |\n";
  os << "| corrupted updates | " << r.faults.corrupt << " |\n";
  os << "| checksum rejects | " << r.faults.checksum_rejects << " |\n";
  os << "| quarantined | " << r.faults.quarantined << " |\n";

  if (r.transport.any()) {
    os << "\n## Transport\n\n";
    os << "| event | count |\n|-------|------:|\n";
    os << "| worker connects | " << r.transport.connects << " |\n";
    os << "| reconnects | " << r.transport.reconnects << " |\n";
    os << "| heartbeats missed | " << r.transport.heartbeat_missed << " |\n";
    os << "| worker restarts | " << r.transport.worker_restarts << " |\n";
    os << "| frames rejected | " << r.transport.frame_rejects << " |\n";
  }

  if (!r.phases.empty()) {
    os << "\n## Phase breakdown (from trace)\n\n";
    if (r.trace_dropped > 0) {
      os << "trace truncated: " << r.trace_dropped
         << " span events dropped\n\n";
    }
    os << "| span | count | total ms |\n|------|------:|---------:|\n";
    for (const PhaseStats& ps : r.phases) {
      os << "| `" << ps.name << "` | " << ps.count << " | "
         << fmt_fixed(static_cast<double>(ps.total_us) / 1e3, 1) << " |\n";
    }
  }
  return os.str();
}

RunReport from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (!doc.is_object()) {
    throw std::runtime_error("fedclust_report: baseline is not an object");
  }
  RunReport r;
  r.version = static_cast<int>(doc.number_or("report_version", 1.0));
  r.codec = doc.string_or("codec", r.codec);
  r.rounds = u64(doc, "rounds");
  r.final_acc = doc.number_or("final_acc", -1.0);
  if (const json::Value* totals = doc.find("totals")) {
    r.sampled_total = u64(*totals, "sampled");
    r.delivered_total = u64(*totals, "delivered");
    r.upload_payload_bytes = u64(*totals, "upload_payload_bytes");
    r.upload_wire_bytes = u64(*totals, "upload_wire_bytes");
    r.download_payload_bytes = u64(*totals, "download_payload_bytes");
    r.download_wire_bytes = u64(*totals, "download_wire_bytes");
    r.train_us_total = u64(*totals, "train_us_total");
  }
  if (const json::Value* memory = doc.find("memory")) {
    r.peak_rss_kb = u64(*memory, "peak_rss_kb");
    r.cache_hits = u64(*memory, "cache_hits");
    r.cache_misses = u64(*memory, "cache_misses");
    r.cache_evictions = u64(*memory, "cache_evictions");
  }
  if (const json::Value* faults = doc.find("faults")) {
    r.faults.dropped = u64(*faults, "dropped");
    r.faults.crashes = u64(*faults, "crashes");
    r.faults.stragglers = u64(*faults, "stragglers");
    r.faults.retries = u64(*faults, "retries");
    r.faults.comm_failed = u64(*faults, "comm_failed");
    r.faults.deadline_missed = u64(*faults, "deadline_missed");
    r.faults.corrupt = u64(*faults, "corrupt");
    r.faults.checksum_rejects = u64(*faults, "checksum_rejects");
    r.faults.quarantined = u64(*faults, "quarantined");
  }
  if (const json::Value* clustering = doc.find("clustering")) {
    r.clustering.landmarks = u64(*clustering, "landmarks");
    r.clustering.clusters = u64(*clustering, "clusters");
    r.clustering.assign_batches = u64(*clustering, "assign_batches");
    r.clustering.assigned = u64(*clustering, "assigned");
    const json::Value* pairs = clustering->find("assignment");
    if (pairs != nullptr && pairs->is_array()) {
      for (const json::Value& pair : pairs->array) {
        if (!pair.is_array() || pair.array.size() != 2) {
          throw std::runtime_error(
              "fedclust_report: clustering.assignment entries must be "
              "[client, cluster] pairs");
        }
        r.clustering.assignment.emplace_back(
            static_cast<std::uint64_t>(pair.array[0].number),
            static_cast<std::uint64_t>(pair.array[1].number));
      }
    }
  }
  if (const json::Value* transport = doc.find("transport")) {
    r.transport.connects = u64(*transport, "connects");
    r.transport.reconnects = u64(*transport, "reconnects");
    r.transport.heartbeat_missed = u64(*transport, "heartbeat_missed");
    r.transport.worker_restarts = u64(*transport, "worker_restarts");
    r.transport.frame_rejects = u64(*transport, "frame_rejects");
  }
  return r;
}

bool partition_agreement(const RunReport& a, const RunReport& b,
                         double* ari) {
  // Intersect the two journaled partitions on client id (both sides are
  // sorted by construction), building the contingency table n_ij plus the
  // row/column marginals as we go.
  std::map<std::uint64_t, std::uint64_t> bmap(b.clustering.assignment.begin(),
                                              b.clustering.assignment.end());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> joint;
  std::map<std::uint64_t, std::uint64_t> rows, cols;
  std::uint64_t n = 0;
  for (const auto& [client, ka] : a.clustering.assignment) {
    const auto it = bmap.find(client);
    if (it == bmap.end()) continue;
    ++joint[{ka, it->second}];
    ++rows[ka];
    ++cols[it->second];
    ++n;
  }
  if (n < 2) return false;

  // Hubert & Arabie's adjusted Rand index over pair counts C(x, 2).
  const auto comb2 = [](std::uint64_t x) {
    return 0.5 * static_cast<double>(x) * static_cast<double>(x - 1);
  };
  double index = 0.0, row_sum = 0.0, col_sum = 0.0;
  for (const auto& [key, c] : joint) index += comb2(c);
  for (const auto& [k, c] : rows) row_sum += comb2(c);
  for (const auto& [k, c] : cols) col_sum += comb2(c);
  const double expected = row_sum * col_sum / comb2(n);
  const double max_index = 0.5 * (row_sum + col_sum);
  // Degenerate case (both sides all-singletons or one-cluster): the raw
  // Rand index is 1 exactly when the partitions agree, which they do here
  // since index == max_index == expected.
  *ari = max_index == expected
             ? 1.0
             : (index - expected) / (max_index - expected);
  return true;
}

std::vector<Regression> compare(const RunReport& current,
                                const RunReport& baseline,
                                const CompareThresholds& thresholds) {
  std::vector<Regression> out;
  if (current.final_acc >= 0.0 && baseline.final_acc >= 0.0) {
    const double drop = baseline.final_acc - current.final_acc;
    if (drop > thresholds.acc_tol) {
      out.push_back({"final_acc", current.final_acc, baseline.final_acc,
                     "final accuracy dropped " +
                         fmt_fixed(drop * 100.0, 2) + " points (tolerance " +
                         fmt_fixed(thresholds.acc_tol * 100.0, 2) + ")"});
    }
  }
  const auto cur_wire = static_cast<double>(current.total_wire_bytes());
  const auto base_wire = static_cast<double>(baseline.total_wire_bytes());
  if (base_wire > 0.0 &&
      cur_wire > base_wire * (1.0 + thresholds.bytes_tol_pct / 100.0)) {
    out.push_back({"wire_bytes", cur_wire, base_wire,
                   "total wire bytes grew " +
                       fmt_fixed((cur_wire / base_wire - 1.0) * 100.0, 1) +
                       "% (tolerance " +
                       fmt_fixed(thresholds.bytes_tol_pct, 1) + "%)"});
  }
  const auto cur_us = static_cast<double>(current.train_us_total);
  const auto base_us = static_cast<double>(baseline.train_us_total);
  if (base_us > 0.0 &&
      cur_us > base_us * (1.0 + thresholds.time_tol_pct / 100.0)) {
    out.push_back({"train_us", cur_us, base_us,
                   "total train wall time grew " +
                       fmt_fixed((cur_us / base_us - 1.0) * 100.0, 1) +
                       "% (tolerance " +
                       fmt_fixed(thresholds.time_tol_pct, 1) + "%)"});
  }
  return out;
}

}  // namespace fedclust::obs::report
