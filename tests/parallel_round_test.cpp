// ParallelRoundRunner: index-ordered collection, sequential/parallel
// equivalence, workspace-pool leasing, and concurrent comm accounting.

#include "fl/parallel_round.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "fl/codec.h"
#include "fl/federation.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

fl::ExperimentConfig small_cfg(std::uint64_t seed) {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("svhn");
  cfg.data_spec.hw = 8;
  cfg.fed.n_clients = 8;
  cfg.fed.train_per_client = 10;
  cfg.fed.test_per_client = 4;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "mlp";
  cfg.model.in_channels = 3;
  cfg.model.image_hw = 8;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 5;
  cfg.local.lr = 0.05f;
  cfg.rounds = 2;
  cfg.sample_fraction = 0.5;
  cfg.seed = seed;
  return cfg;
}

// Restores the previous global pool size around each test.
class ParallelRoundTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

  std::vector<fl::RoundTrainResult> train_round(fl::Federation& fed,
                                                std::size_t round) {
    fl::ParallelRoundRunner runner(fed);
    const auto sampled = fed.sample_round(round);
    return runner.train_clients(
        sampled, [&](std::size_t, std::size_t c) {
          fl::RoundTrainJob job;
          job.start = &fed.init_params();
          job.opts = fed.cfg().local;
          job.rng = fed.train_rng(c, round);
          job.download_floats = fed.model_size();
          job.upload_floats = fed.model_size();
          return job;
        });
  }

 private:
  std::size_t prev_threads_ = 1;
};

TEST_F(ParallelRoundTest, ResultsComeBackInClientIndexOrder) {
  util::reset_global_pool(4);
  fl::Federation fed(small_cfg(3));
  const auto sampled = fed.sample_round(0);
  const auto results = train_round(fed, 0);
  ASSERT_EQ(results.size(), sampled.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].client, sampled[i]);
    EXPECT_EQ(results[i].params.size(), fed.model_size());
    EXPECT_DOUBLE_EQ(results[i].weight,
                     static_cast<double>(fed.client(sampled[i])->n_train()));
  }
}

TEST_F(ParallelRoundTest, ParallelTrainingMatchesSequentialBitwise) {
  const auto run_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(small_cfg(7));
    return train_round(fed, 1);
  };
  const auto seq = run_with(1);
  const auto par = run_with(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].client, par[i].client);
    EXPECT_EQ(seq[i].loss, par[i].loss);
    ASSERT_EQ(seq[i].params.size(), par[i].params.size());
    for (std::size_t j = 0; j < seq[i].params.size(); ++j) {
      ASSERT_EQ(seq[i].params[j], par[i].params[j])
          << "client " << i << " param " << j;
    }
  }
}

TEST_F(ParallelRoundTest, CommBytesAreExactUnderConcurrency) {
  const auto bytes_with = [&](std::size_t threads) {
    util::reset_global_pool(threads);
    fl::Federation fed(small_cfg(5));
    const auto results = train_round(fed, 0);
    EXPECT_FALSE(results.empty());
    return std::make_pair(fed.comm().bytes_up(), fed.comm().bytes_down());
  };
  EXPECT_EQ(bytes_with(1), bytes_with(4));
}

TEST_F(ParallelRoundTest, ForEachIndexCoversEveryIndexOnce) {
  util::reset_global_pool(4);
  fl::Federation fed(small_cfg(11));
  fl::ParallelRoundRunner runner(fed);
  const std::size_t n = fed.n_clients();
  std::vector<std::atomic<int>> hits(n);
  runner.for_each_index(n, [&](std::size_t i, nn::Model& ws) {
    EXPECT_EQ(ws.flat_params().size(), fed.model_size());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ParallelRoundTest, SequentialPathUsesSharedWorkspace) {
  util::reset_global_pool(1);
  fl::Federation fed(small_cfg(13));
  fl::ParallelRoundRunner runner(fed);
  nn::Model* shared = &fed.workspace();
  runner.for_each_index(fed.n_clients(), [&](std::size_t, nn::Model& ws) {
    EXPECT_EQ(&ws, shared);  // FEDCLUST_THREADS=1 takes the seed's path
  });
}

// pull_model memoizes its wire round trip per (round, payload bytes). Every
// pull must still equal a fresh, uncached through_wire(kModelPull, ...) of
// the payload as it stands at that moment, and still be billed as its own
// download; wire.pull_memo_hits counts exactly the reused round trips.
// Each group's first pull runs alone, so the hit count is exact at any
// thread count; the rest of the group pulls concurrently.
TEST_F(ParallelRoundTest, PullMemoMatchesUncachedRoundTrips) {
  for (const fl::wire::CodecId codec :
       {fl::wire::CodecId::kRawF32, fl::wire::CodecId::kQInt8}) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << fl::wire::codec_name(codec)
                                        << " threads=" << threads);
      util::reset_global_pool(threads);
      obs::MetricsRegistry::instance().reset_values();
      obs::MetricsRegistry::instance().set_enabled(true);
      fl::ExperimentConfig cfg = small_cfg(23);
      cfg.codec = codec;
      fl::Federation fed(cfg);
      fl::CommTracker uncached;
      uncached.set_codec(codec);
      const std::size_t n = fed.model_size();

      const auto pull_group = [&](const std::vector<float>& payload,
                                  std::size_t round, std::size_t times,
                                  std::uint64_t counted) {
        const std::vector<float> want = fed.through_wire(
            fl::wire::MessageKind::kModelPull, payload,
            fl::wire::kServerSender, round);
        std::vector<std::vector<float>> got(times);
        got[0] = fed.pull_model(payload, round, counted);
        fl::ParallelRoundRunner(fed).for_each_index(
            times - 1, [&](std::size_t i, nn::Model&) {
              got[i + 1] = fed.pull_model(payload, round, counted);
            });
        for (std::size_t i = 0; i < times; ++i) {
          ASSERT_EQ(got[i].size(), want.size());
          EXPECT_EQ(0, std::memcmp(got[i].data(), want.data(),
                                   want.size() * sizeof(float)))
              << "pull " << i << " of round " << round;
          uncached.download_envelope(n, fl::wire::encoded_size(codec, n));
          if (counted > n) {
            uncached.download_envelope(
                counted - n, fl::wire::encoded_size(codec, counted - n));
          }
        }
      };

      std::vector<float> a = fed.init_params();
      std::vector<float> b = a;
      for (float& x : b) x *= 0.5f;
      pull_group(a, 3, 6, n);       // miss, then 5 hits
      pull_group(b, 3, 6, n + 10);  // second payload, same round: 1 + 5
      pull_group(a, 3, 2, n);       // still cached: 2 hits
      a[n / 2] = std::nextafter(a[n / 2], 1.0f);  // changed in place
      pull_group(a, 3, 3, n);                     // miss, then 2 hits
      pull_group(a, 4, 3, n);                     // new round: 1 + 2
      EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().counter_value(
                    "wire.pull_memo_hits"),
                16u);

      // More distinct payloads in one round than the memo holds: the
      // overflow misses every time and stays exact.
      for (int k = 0; k < 7; ++k) {
        std::vector<float> c = a;
        c[0] += static_cast<float>(k + 1);
        pull_group(c, 5, 3, n);
      }

      EXPECT_EQ(fed.comm().bytes_down(), uncached.bytes_down());
      EXPECT_EQ(fed.comm().bytes_up(), 0u);
      EXPECT_EQ(fed.comm().payload_bytes(), uncached.payload_bytes());
      EXPECT_EQ(fed.comm().wire_bytes(), uncached.wire_bytes());
      EXPECT_EQ(fed.comm().messages(), uncached.messages());
      obs::MetricsRegistry::instance().set_enabled(false);
      obs::MetricsRegistry::instance().reset_values();
    }
  }
}

TEST(WorkspacePool, LeasesAreDistinctAndRecycled) {
  fl::Federation fed(small_cfg(17));
  nn::Model* a = fed.acquire_workspace();
  nn::Model* b = fed.acquire_workspace();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(a, &fed.workspace());
  EXPECT_EQ(a->flat_params().size(), fed.model_size());
  fed.release_workspace(a);
  nn::Model* c = fed.acquire_workspace();
  EXPECT_EQ(c, a);  // free list is reused before new replicas are built
  fed.release_workspace(b);
  fed.release_workspace(c);
}

TEST(CommTracker, ConcurrentIncrementsAreExact) {
  fl::CommTracker comm;
  const std::size_t n_threads = 4, per_thread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&comm] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        comm.upload_envelope(1, fl::wire::encoded_size(comm.codec(), 1));
        comm.download_envelope(2, fl::wire::encoded_size(comm.codec(), 2));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(comm.bytes_up(), n_threads * per_thread * sizeof(float));
  EXPECT_EQ(comm.bytes_down(), n_threads * per_thread * 2 * sizeof(float));
}

}  // namespace
}  // namespace fedclust
