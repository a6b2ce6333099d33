// obs::report — golden-input coverage for the run-report builder, its
// deterministic serializations, the from_json round-trip, and the
// --compare regression gate. The fixtures are hand-written journal /
// metrics / trace text with aggregates small enough to verify by eye.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/json.h"
#include "obs/report.h"

namespace fedclust::obs {
namespace {

// Two rounds, three clients. Client 1 straggles and retransmits in round
// 0; client 2 is dropped in round 0, then corrupted and quarantined in
// round 1; client 0 crashes post-train in round 1.
const char* kJournal =
    "{\"journal\":1,\"codec\":\"qint8\"}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"sampled\"}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"cluster\",\"cluster\":0}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"download\",\"payload_bytes\":400,"
    "\"wire_bytes\":144}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"train\",\"train_us\":1000}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"upload\",\"payload_bytes\":400,"
    "\"wire_bytes\":144}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"delivered\"}\n"
    "{\"round\":0,\"client\":0,\"ev\":\"eval\",\"acc_micro\":600000}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"sampled\"}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"cluster\",\"cluster\":1}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"download\",\"payload_bytes\":400,"
    "\"wire_bytes\":144}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"train\",\"train_us\":3000}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"straggler\",\"delay_milli\":1500}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"retry\",\"retries\":2}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"upload\",\"payload_bytes\":1200,"
    "\"wire_bytes\":432}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"delivered\"}\n"
    "{\"round\":0,\"client\":1,\"ev\":\"eval\",\"acc_micro\":400000}\n"
    "{\"round\":0,\"client\":2,\"ev\":\"dropped\"}\n"
    "{\"round\":1,\"client\":0,\"ev\":\"sampled\"}\n"
    "{\"round\":1,\"client\":0,\"ev\":\"download\",\"payload_bytes\":400,"
    "\"wire_bytes\":144}\n"
    "{\"round\":1,\"client\":0,\"ev\":\"train\",\"train_us\":2000}\n"
    "{\"round\":1,\"client\":0,\"ev\":\"crash\"}\n"
    "{\"round\":1,\"client\":0,\"ev\":\"eval\",\"acc_micro\":700000}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"sampled\"}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"cluster\",\"cluster\":1}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"download\",\"payload_bytes\":400,"
    "\"wire_bytes\":144}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"train\",\"train_us\":1500}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"upload\",\"payload_bytes\":400,"
    "\"wire_bytes\":144}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"corrupt\",\"mode\":\"nan\"}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"quarantine\",\"reason\":"
    "\"non_finite\"}\n"
    "{\"round\":1,\"client\":2,\"ev\":\"eval\",\"acc_micro\":500000}\n";

const char* kMetrics =
    "{\"event\":\"run_start\",\"method\":\"FedClust\"}\n"
    "{\"round\":0,\"acc\":0.41,\"round_seconds\":1.5}\n"
    "{\"round\":1,\"acc\":0.52,\"round_seconds\":1.25}\n";

const char* kTrace =
    "{\"traceEvents\":["
    "{\"name\":\"client.train\",\"ph\":\"X\",\"ts\":0,\"dur\":1000},"
    "{\"name\":\"client.train\",\"ph\":\"X\",\"ts\":10,\"dur\":2000},"
    "{\"name\":\"wire.encode\",\"ph\":\"X\",\"ts\":5,\"dur\":500},"
    "{\"name\":\"process_name\",\"ph\":\"M\"}"
    "]}";

TEST(Report, BuildAggregatesTheJournal) {
  const report::RunReport r = report::build_report(kJournal, "", "");
  EXPECT_EQ(r.codec, "qint8");
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.sampled_total, 4u);
  EXPECT_EQ(r.delivered_total, 2u);
  EXPECT_EQ(r.upload_payload_bytes, 2000u);
  EXPECT_EQ(r.upload_wire_bytes, 720u);
  EXPECT_EQ(r.download_payload_bytes, 1600u);
  EXPECT_EQ(r.download_wire_bytes, 576u);
  EXPECT_EQ(r.train_us_total, 7500u);

  ASSERT_EQ(r.per_round.size(), 2u);
  EXPECT_EQ(r.per_round[0].sampled, 2u);
  EXPECT_EQ(r.per_round[0].delivered, 2u);
  EXPECT_EQ(r.per_round[0].train_us_total, 4000u);
  EXPECT_EQ(r.per_round[0].train_us_max, 3000u);
  EXPECT_EQ(r.per_round[0].critical_client, 1);
  EXPECT_EQ(r.per_round[0].upload_wire_bytes, 576u);
  EXPECT_EQ(r.per_round[1].delivered, 0u);
  EXPECT_EQ(r.per_round[1].critical_client, 0);

  EXPECT_EQ(r.faults.dropped, 1u);
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_EQ(r.faults.stragglers, 1u);
  EXPECT_EQ(r.faults.retries, 2u);
  EXPECT_EQ(r.faults.corrupt, 1u);
  EXPECT_EQ(r.faults.quarantined, 1u);
  EXPECT_EQ(r.faults.comm_failed, 0u);

  // No metrics file: final_acc falls back to the mean last-eval accuracy
  // (0.7 + 0.4 + 0.5) / 3.
  EXPECT_NEAR(r.final_acc, 1.6 / 3.0, 1e-9);

  // Straggler ranking: client 1 (one event) first, then client 0 over
  // client 2 on train_us_max (2000 vs 1500).
  ASSERT_EQ(r.stragglers.size(), 3u);
  EXPECT_EQ(r.stragglers[0].client, 1u);
  EXPECT_EQ(r.stragglers[0].max_delay_milli, 1500u);
  EXPECT_EQ(r.stragglers[1].client, 0u);
  EXPECT_EQ(r.stragglers[2].client, 2u);

  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[0].cluster, 0u);
  EXPECT_EQ(r.clusters[0].clients, 1u);
  EXPECT_NEAR(r.clusters[0].mean_acc, 0.7, 1e-9);
  EXPECT_EQ(r.clusters[1].cluster, 1u);
  EXPECT_EQ(r.clusters[1].clients, 2u);
  EXPECT_NEAR(r.clusters[1].mean_acc, 0.45, 1e-9);
  EXPECT_EQ(r.clusters[1].upload_wire_bytes, 576u);
}

TEST(Report, TopKBoundsTheStragglerTable) {
  const report::RunReport r = report::build_report(kJournal, "", "", 1);
  ASSERT_EQ(r.stragglers.size(), 1u);
  EXPECT_EQ(r.stragglers[0].client, 1u);
}

TEST(Report, MetricsOverrideFinalAccAndFillRounds) {
  const report::RunReport r = report::build_report(kJournal, kMetrics, "");
  EXPECT_NEAR(r.final_acc, 0.52, 1e-9);
  ASSERT_EQ(r.per_round.size(), 2u);
  EXPECT_NEAR(r.per_round[0].acc, 0.41, 1e-9);
  EXPECT_NEAR(r.per_round[0].round_seconds, 1.5, 1e-9);
  EXPECT_NEAR(r.per_round[1].acc, 0.52, 1e-9);
}

TEST(Report, TraceBecomesPhaseBreakdown) {
  const report::RunReport r = report::build_report(kJournal, "", kTrace);
  ASSERT_EQ(r.phases.size(), 2u);  // the ph:"M" metadata event is skipped
  EXPECT_EQ(r.phases[0].name, "client.train");
  EXPECT_EQ(r.phases[0].count, 2u);
  EXPECT_EQ(r.phases[0].total_us, 3000u);
  EXPECT_EQ(r.phases[1].name, "wire.encode");
  EXPECT_EQ(r.phases[1].total_us, 500u);
}

TEST(Report, TruncatedTraceIsReported) {
  // Two threads' rings overflowed: their ring_overflow instant events carry
  // the dropped counts, which the report sums and states above the table.
  const char* trace =
      "{\"traceEvents\":["
      "{\"name\":\"client.train\",\"ph\":\"X\",\"ts\":0,\"dur\":1000},"
      "{\"ph\":\"I\",\"pid\":1,\"tid\":1,\"name\":\"ring_overflow\","
      "\"ts\":0,\"args\":{\"dropped\":126000}},"
      "{\"ph\":\"I\",\"pid\":1,\"tid\":2,\"name\":\"ring_overflow\","
      "\"ts\":0,\"args\":{\"dropped\":759}}"
      "]}";
  const report::RunReport r = report::build_report(kJournal, "", trace);
  EXPECT_EQ(r.trace_dropped, 126759u);
  ASSERT_EQ(r.phases.size(), 1u);  // instant events are not phases
  const json::Value doc = json::parse(report::to_json(r));
  EXPECT_DOUBLE_EQ(doc.number_or("trace_dropped", -1.0), 126759.0);
  const std::string md = report::to_markdown(r);
  const auto note = md.find("trace truncated: 126759 span events dropped");
  ASSERT_NE(note, std::string::npos);
  EXPECT_LT(note, md.find("| span | count |"));

  // A complete trace says nothing about truncation.
  const report::RunReport full = report::build_report(kJournal, "", kTrace);
  EXPECT_EQ(full.trace_dropped, 0u);
  EXPECT_EQ(report::to_markdown(full).find("trace truncated"),
            std::string::npos);
}

TEST(Report, JsonIsDeterministicAndParseable) {
  const report::RunReport r =
      report::build_report(kJournal, kMetrics, kTrace);
  const std::string a = report::to_json(r);
  const std::string b = report::to_json(r);
  EXPECT_EQ(a, b);
  const json::Value doc = json::parse(a);
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.number_or("rounds", -1.0), 2.0);
  EXPECT_EQ(doc.string_or("codec", ""), "qint8");
  const json::Value* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_DOUBLE_EQ(totals->number_or("upload_wire_bytes", -1.0), 720.0);
  const json::Value* per_round = doc.find("per_round");
  ASSERT_NE(per_round, nullptr);
  EXPECT_EQ(per_round->array.size(), 2u);
}

TEST(Report, MarkdownNamesTheSections) {
  const report::RunReport r =
      report::build_report(kJournal, kMetrics, kTrace);
  const std::string md = report::to_markdown(r);
  EXPECT_NE(md.find("# fedclust run report"), std::string::npos);
  EXPECT_NE(md.find("## Per-round"), std::string::npos);
  EXPECT_NE(md.find("## Top straggler clients"), std::string::npos);
  EXPECT_NE(md.find("## Clusters"), std::string::npos);
  EXPECT_NE(md.find("## Faults"), std::string::npos);
  EXPECT_NE(md.find("## Phase breakdown"), std::string::npos);
  EXPECT_NE(md.find("`client.train`"), std::string::npos);
}

TEST(Report, FromJsonRoundTripsTheCompareFields) {
  const report::RunReport r =
      report::build_report(kJournal, kMetrics, kTrace);
  const report::RunReport back = report::from_json(report::to_json(r));
  EXPECT_EQ(back.codec, r.codec);
  EXPECT_EQ(back.rounds, r.rounds);
  EXPECT_NEAR(back.final_acc, r.final_acc, 1e-9);
  EXPECT_EQ(back.upload_wire_bytes, r.upload_wire_bytes);
  EXPECT_EQ(back.download_wire_bytes, r.download_wire_bytes);
  EXPECT_EQ(back.train_us_total, r.train_us_total);
  EXPECT_EQ(back.faults.quarantined, r.faults.quarantined);
}

TEST(Report, ClusteringSummaryCollectsPartitionAndLandmarkCounters) {
  const std::string metrics =
      std::string(kMetrics) +
      "{\"round\":1,\"cluster.landmark.count\":16,"
      "\"cluster.landmark.clusters\":3,\"cluster.landmark.batches\":2,"
      "\"cluster.landmark.assigned\":84}\n";
  const report::RunReport r = report::build_report(kJournal, metrics, "");
  EXPECT_EQ(r.clustering.landmarks, 16u);
  EXPECT_EQ(r.clustering.clusters, 3u);
  EXPECT_EQ(r.clustering.assign_batches, 2u);
  EXPECT_EQ(r.clustering.assigned, 84u);
  // The journal's cluster rows become the (client, cluster) partition,
  // sorted by client.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0, 0}, {1, 1}, {2, 1}};
  EXPECT_EQ(r.clustering.assignment, want);

  const std::string md = report::to_markdown(r);
  EXPECT_NE(md.find("## Clustering"), std::string::npos);
  EXPECT_NE(md.find("16 landmarks"), std::string::npos);

  const report::RunReport back = report::from_json(report::to_json(r));
  EXPECT_EQ(back.clustering.landmarks, 16u);
  EXPECT_EQ(back.clustering.assignment, want);
}

TEST(Compare, PartitionAgreementIsLabelInvariantAri) {
  report::RunReport a;
  a.clustering.assignment = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
  report::RunReport b;
  // Same partition under renamed cluster ids, plus a client only b knows
  // about (ignored: agreement runs over the intersection).
  b.clustering.assignment = {{0, 7}, {1, 7}, {2, 3}, {3, 3}, {9, 7}};
  double ari = -2.0;
  ASSERT_TRUE(report::partition_agreement(a, b, &ari));
  EXPECT_DOUBLE_EQ(ari, 1.0);

  // Split one pair apart: agreement drops below 1.
  b.clustering.assignment = {{0, 7}, {1, 3}, {2, 3}, {3, 3}};
  ASSERT_TRUE(report::partition_agreement(a, b, &ari));
  EXPECT_LT(ari, 1.0);

  // Fewer than two common clients: undefined.
  report::RunReport c;
  c.clustering.assignment = {{0, 0}};
  EXPECT_FALSE(report::partition_agreement(a, c, &ari));
  EXPECT_FALSE(report::partition_agreement(report::RunReport{}, a, &ari));
}

TEST(Compare, SelfCompareIsClean) {
  const report::RunReport r =
      report::build_report(kJournal, kMetrics, kTrace);
  EXPECT_TRUE(report::compare(r, r, report::CompareThresholds{}).empty());
}

TEST(Compare, FlagsSeededRegressions) {
  const report::RunReport baseline =
      report::build_report(kJournal, kMetrics, kTrace);
  report::RunReport current = report::from_json(report::to_json(baseline));
  current.final_acc = baseline.final_acc - 0.10;    // > 0.02 tolerance
  current.upload_wire_bytes = baseline.upload_wire_bytes * 2;  // > 10%
  current.train_us_total = baseline.train_us_total * 3;        // > 50%
  const auto regs =
      report::compare(current, baseline, report::CompareThresholds{});
  ASSERT_EQ(regs.size(), 3u);
  EXPECT_EQ(regs[0].metric, "final_acc");
  EXPECT_EQ(regs[1].metric, "wire_bytes");
  EXPECT_EQ(regs[2].metric, "train_us");
  for (const auto& reg : regs) EXPECT_FALSE(reg.detail.empty());
}

TEST(Compare, WithinToleranceIsNotARegression) {
  const report::RunReport baseline =
      report::build_report(kJournal, kMetrics, kTrace);
  report::RunReport current = report::from_json(report::to_json(baseline));
  current.final_acc = baseline.final_acc - 0.01;
  current.upload_wire_bytes =
      baseline.upload_wire_bytes + baseline.upload_wire_bytes / 20;
  EXPECT_TRUE(
      report::compare(current, baseline, report::CompareThresholds{})
          .empty());
}

TEST(Compare, MissingBaselineDataIsSkippedNotFlagged) {
  report::RunReport current;
  current.final_acc = 0.1;
  current.upload_wire_bytes = 1000000;
  current.train_us_total = 1000000;
  report::RunReport empty;  // final_acc -1, zero byte/time totals
  EXPECT_TRUE(
      report::compare(current, empty, report::CompareThresholds{}).empty());
}

TEST(Report, MalformedInputsThrow) {
  EXPECT_THROW(report::build_report("{not json\n", "", ""),
               std::runtime_error);
  EXPECT_THROW(report::build_report(kJournal, "", "{\"noTraceEvents\":1}"),
               std::runtime_error);
  EXPECT_THROW(report::from_json("[1,2,3]"), std::runtime_error);
}

TEST(Json, ParsesEscapesAndNesting) {
  const json::Value v = json::parse(
      "{\"s\":\"a\\\"b\\\\c\\n\\u0041\",\"arr\":[1,2.5,-3e2,true,null],"
      "\"o\":{\"k\":{}}}");
  EXPECT_EQ(v.string_or("s", ""), "a\"b\\c\nA");
  const json::Value* arr = v.find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 5u);
  EXPECT_DOUBLE_EQ(arr->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(arr->array[2].number, -300.0);
  EXPECT_TRUE(arr->array[3].boolean);
  EXPECT_TRUE(arr->array[4].is_null());
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":}"), std::runtime_error);
}

TEST(Json, ParseLinesSkipsBlankLinesAndReportsTheBadOne) {
  const auto lines = json::parse_lines("{\"a\":1}\n\n{\"b\":2}\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_DOUBLE_EQ(lines[1].number_or("b", -1.0), 2.0);
  EXPECT_THROW(json::parse_lines("{\"a\":1}\nnope\n"), std::runtime_error);
}

}  // namespace
}  // namespace fedclust::obs
