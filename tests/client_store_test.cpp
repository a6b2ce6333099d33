// Client-store layer: PartitionPlan regeneration parity with the eager
// build, MaterializedClientStore / VirtualClientStore semantics (LRU
// determinism, eviction safety, build dedup under concurrency — the
// tsan_smoke stress), SparseClientParams round-trip + corruption
// rejection, and the StreamingAggregator reduction-tree contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "data/partition.h"
#include "fl/client_state.h"
#include "fl/client_store.h"
#include "fl/codec.h"
#include "fl/stream_agg.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace {

using namespace fedclust;

data::SyntheticSpec small_spec() {
  data::SyntheticSpec spec = data::dataset_spec("cifar10");
  return spec;
}

data::FederatedConfig small_cfg(const std::string& partition,
                                std::size_t n_clients = 12) {
  data::FederatedConfig cfg;
  cfg.n_clients = n_clients;
  cfg.train_per_client = 6;
  cfg.test_per_client = 4;
  cfg.partition = partition;
  cfg.skew_fraction = 0.2;
  cfg.dirichlet_alpha = 0.1;
  return cfg;
}

void expect_dataset_eq(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.image_size(), b.image_size());
  EXPECT_EQ(a.labels(), b.labels());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(a.image(i), b.image(i),
                             a.image_size() * sizeof(float)))
        << "image " << i << " differs";
  }
}

void expect_client_eq(const data::ClientData& a, const data::ClientData& b) {
  expect_dataset_eq(a.train, b.train);
  expect_dataset_eq(a.test, b.test);
  EXPECT_EQ(a.label_weights, b.label_weights);
  EXPECT_EQ(a.group_id, b.group_id);
}

// --- PartitionPlan: virtual regeneration == eager build, bit for bit ---

// The eager build synthesizes clients on the global pool: it must give the
// same bits at 1 and 4 threads, and each client must equal its on-demand
// regeneration. n = 257 spreads clients over several pool chunks; the
// second config adds quantity skew and a label-set pool.
TEST(PartitionPlan, MaterializeMatchesEagerAcrossPartitions) {
  // Restores the previous pool size, also when an assertion returns early.
  struct PoolGuard {
    std::size_t prev = util::global_pool().size() + 1;
    ~PoolGuard() { util::reset_global_pool(prev); }
  } pool_guard;
  for (const std::string partition : {"skew", "dirichlet", "iid"}) {
    for (const bool skewed : {false, true}) {
      SCOPED_TRACE(partition + (skewed ? " quantity-skew pool" : ""));
      const auto spec = small_spec();
      auto cfg = small_cfg(partition, 257);
      if (skewed) {
        cfg.quantity_skew_factor = 3.0;
        cfg.label_set_pool = 5;
      }
      const std::uint64_t seed = 42;
      util::reset_global_pool(1);
      const auto eager = data::make_federated_data(spec, cfg, seed);
      util::reset_global_pool(4);
      const auto eager4 = data::make_federated_data(spec, cfg, seed);
      const data::PartitionPlan plan(spec, cfg, seed);
      ASSERT_EQ(plan.n_clients(), eager.size());
      ASSERT_EQ(eager4.size(), eager.size());
      // Out-of-order access: each client is a pure function of (seed, id).
      for (std::size_t i = plan.n_clients(); i-- > 0;) {
        SCOPED_TRACE(i);
        expect_client_eq(eager4[i], eager[i]);
        expect_client_eq(plan.materialize(i), eager[i]);
      }
    }
  }
}

TEST(PartitionPlan, SketchAgreesWithMaterialized) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("dirichlet");
  const data::PartitionPlan plan(spec, cfg, 7);
  for (std::size_t i = 0; i < plan.n_clients(); ++i) {
    const data::ClientSketch sk = plan.sketch(i);
    const data::ClientData cd = plan.materialize(i);
    EXPECT_EQ(sk.n_train, cd.train.size());
    EXPECT_EQ(sk.n_test, cd.test.size());
    EXPECT_EQ(sk.label_weights, cd.label_weights);
    EXPECT_EQ(sk.group_id, cd.group_id);
  }
}

TEST(PartitionPlan, CheckpointStrideCrossingIsConsistent) {
  // A population larger than kCheckpointStride exercises the replay-from-
  // checkpoint path; sketching past the stride must not depend on which
  // clients were sketched before.
  auto cfg = small_cfg("skew", data::PartitionPlan::kCheckpointStride + 40);
  cfg.train_per_client = 1;
  cfg.test_per_client = 1;
  const auto spec = small_spec();
  const data::PartitionPlan plan(spec, cfg, 3);
  const std::size_t probe = data::PartitionPlan::kCheckpointStride + 17;
  const data::ClientSketch cold = plan.sketch(probe);
  plan.sketch(2);  // unrelated earlier access
  const data::ClientSketch warm = plan.sketch(probe);
  EXPECT_EQ(cold.label_weights, warm.label_weights);
  EXPECT_EQ(cold.n_train, warm.n_train);
  const data::PartitionPlan plan2(spec, cfg, 3);
  expect_client_eq(plan.materialize(probe), plan2.materialize(probe));
}

// --- Stores ---

TEST(MaterializedClientStore, AcquireAndBounds) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("skew", 5);
  fl::MaterializedClientStore store(data::make_federated_data(spec, cfg, 1));
  EXPECT_EQ(store.size(), 5u);
  const auto c3 = store.acquire(3);
  EXPECT_EQ(c3->id(), 3u);
  EXPECT_EQ(store.acquire(3).get(), c3.get());  // same instance, no copy
  EXPECT_THROW(store.acquire(5), std::out_of_range);
  EXPECT_EQ(store.stats().misses, 0u);  // no cache to miss
}

TEST(VirtualClientStore, MatchesEagerAndCountsDeterministically) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("skew", 10);
  const auto eager = data::make_federated_data(spec, cfg, 9);
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 9);
  fl::VirtualClientStore store(plan, /*capacity=*/3);
  EXPECT_EQ(store.size(), 10u);

  // Fixed access sequence -> fixed hit/miss/eviction sequence (plain LRU).
  const std::size_t seq[] = {0, 1, 2, 0, 3, 4, 0, 1, 5};
  for (const std::size_t id : seq) {
    const auto c = store.acquire(id);
    ASSERT_EQ(c->id(), id);
    expect_dataset_eq(c->train_data(), eager[id].train);
  }
  const auto stats = store.stats();
  // Misses: 0,1,2,3,4 first touches + 1 (evicted by 4's insert) + 5 = 7.
  EXPECT_EQ(stats.misses, 7u);
  EXPECT_EQ(stats.hits, 2u);  // the second and third acquire(0)
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_LE(store.cached(), store.capacity());

  // Same sequence on a fresh store reproduces the same counters.
  fl::VirtualClientStore replay(plan, 3);
  for (const std::size_t id : seq) replay.acquire(id);
  EXPECT_EQ(replay.stats().misses, stats.misses);
  EXPECT_EQ(replay.stats().hits, stats.hits);
  EXPECT_EQ(replay.stats().evictions, stats.evictions);

  EXPECT_THROW(store.acquire(10), std::out_of_range);
}

TEST(VirtualClientStore, EvictedClientStaysAliveAndRegeneratesIdentically) {
  const auto spec = small_spec();
  const auto cfg = small_cfg("dirichlet", 6);
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 11);
  fl::VirtualClientStore store(plan, /*capacity=*/1);
  const auto held = store.acquire(2);
  store.acquire(3);  // capacity 1: evicts client 2
  store.acquire(4);
  // The held shared_ptr keeps the evicted client fully usable...
  EXPECT_EQ(held->id(), 2u);
  EXPECT_GT(held->n_train(), 0u);
  // ...and re-acquiring materializes a bit-identical replacement.
  const auto again = store.acquire(2);
  EXPECT_NE(again.get(), held.get());
  expect_dataset_eq(again->train_data(), held->train_data());
  expect_dataset_eq(again->test_data(), held->test_data());
}

// tsan_smoke: many threads hammering acquire() with capacity far below the
// id range — the build-slot dedup, LRU updates, and eviction must be free
// of races and deadlocks, and every thread must see the right client.
TEST(VirtualClientStore, ConcurrentAcquireStress) {
  const auto spec = small_spec();
  auto cfg = small_cfg("skew", 32);
  cfg.train_per_client = 2;
  cfg.test_per_client = 1;
  auto plan = std::make_shared<const data::PartitionPlan>(spec, cfg, 5);
  fl::VirtualClientStore store(plan, /*capacity=*/4);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(100 + t);
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t id = static_cast<std::size_t>(
            rng.randint(0, static_cast<std::int64_t>(store.size())));
        const auto c = store.acquire(id);
        if (c->id() != id || c->n_train() != 2) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(store.cached(), store.capacity());
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  // Every client acquired after the stress is still regenerated correctly.
  const auto eager = data::make_federated_data(spec, cfg, 5);
  for (std::size_t id = 0; id < store.size(); id += 7) {
    expect_dataset_eq(store.acquire(id)->train_data(), eager[id].train);
  }
}

// --- SparseClientParams ---

TEST(SparseClientParams, DefaultsAndTouchSemantics) {
  fl::SparseClientParams p;
  p.reset(100, {1.0f, 2.0f});
  EXPECT_EQ(p.n_clients(), 100u);
  EXPECT_EQ(p.touched_count(), 0u);
  EXPECT_EQ(p.get(57), (std::vector<float>{1.0f, 2.0f}));
  auto& slot = p.touch(57);
  EXPECT_EQ(slot, (std::vector<float>{1.0f, 2.0f}));  // copy of default
  slot[0] = 9.0f;
  EXPECT_EQ(p.get(57)[0], 9.0f);
  EXPECT_EQ(p.get(58)[0], 1.0f);  // untouched slots unaffected
  EXPECT_EQ(p.touched_count(), 1u);
  EXPECT_EQ(&p.touch(57), &slot);  // re-touch: same node, stable reference
  EXPECT_THROW(p.get(100), std::out_of_range);
  EXPECT_THROW(p.touch(100), std::out_of_range);
}

TEST(SparseClientParams, SaveLoadRoundTrip) {
  fl::SparseClientParams p;
  p.reset(10000, std::vector<float>(3, 0.5f));
  for (const std::size_t id : {7, 42, 9999}) {
    p.touch(id) = {static_cast<float>(id), 1.0f, 2.0f};
  }
  std::ostringstream os;
  util::BinaryWriter w(os);
  p.save(w);
  const std::string bytes = os.str();
  // Snapshot size scales with touched slots, not population: 3 records of
  // (u64 id + u64 len + 3 f32) + the two header u64s.
  EXPECT_EQ(bytes.size(), 2 * 8 + 3 * (8 + 8 + 3 * 4));

  fl::SparseClientParams q;
  q.reset(10000, std::vector<float>(3, 0.5f));
  std::istringstream is(bytes);
  util::BinaryReader r(is);
  q.load(r);
  EXPECT_EQ(q.touched_count(), 3u);
  for (std::size_t id = 0; id < 10000; ++id) {
    ASSERT_EQ(q.get(id), p.get(id)) << id;
  }
}

TEST(SparseClientParams, LoadRejectsCorruption) {
  const auto serialize = [](std::uint64_t n, std::uint64_t count,
                            std::vector<std::pair<std::uint64_t,
                                                  std::vector<float>>>
                                records) {
    std::ostringstream os;
    util::BinaryWriter w(os);
    w.write_u64(n);
    w.write_u64(count);
    for (auto& [id, vec] : records) {
      w.write_u64(id);
      w.write_f32_vec(vec);
    }
    return os.str();
  };
  const auto load_into = [](const std::string& bytes) {
    fl::SparseClientParams p;
    p.reset(100, std::vector<float>(2, 0.0f));
    std::istringstream is(bytes);
    util::BinaryReader r(is);
    p.load(r);
  };
  // Population disagrees with reset().
  EXPECT_THROW(load_into(serialize(99, 0, {})), std::runtime_error);
  // More touched records than clients.
  EXPECT_THROW(load_into(serialize(100, 101, {})), std::runtime_error);
  // Record id out of range.
  EXPECT_THROW(load_into(serialize(100, 1, {{100, {0, 0}}})),
               std::runtime_error);
  // Ids not strictly ascending.
  EXPECT_THROW(
      load_into(serialize(100, 2, {{5, {0, 0}}, {5, {0, 0}}})),
      std::runtime_error);
  EXPECT_THROW(
      load_into(serialize(100, 2, {{5, {0, 0}}, {3, {0, 0}}})),
      std::runtime_error);
  // Dimension mismatch vs the reset default.
  EXPECT_THROW(load_into(serialize(100, 1, {{5, {1, 2, 3}}})),
               std::runtime_error);
  // A clean payload still loads after all those rejections.
  load_into(serialize(100, 1, {{5, {1, 2}}}));
}

// --- StreamingAggregator ---

TEST(StreamingAggregator, OrderInvariantAndMatchesDirectAverage) {
  const std::size_t dim = 37, slots = 5;
  std::vector<std::vector<float>> updates(slots, std::vector<float>(dim));
  std::vector<double> weights = {1.0, 2.0, 0.5, 3.0, 1.5};
  util::Rng rng(4);
  for (auto& u : updates)
    for (auto& x : u) x = rng.normalf(0, 1);

  const auto run = [&](const std::vector<std::size_t>& order) {
    fl::StreamingAggregator agg(slots, dim);
    for (const std::size_t s : order) {
      agg.submit(s, updates[s].data(), dim, weights[s]);
    }
    std::vector<float> out(dim);
    EXPECT_TRUE(agg.finish(out));
    return out;
  };
  const auto a = run({0, 1, 2, 3, 4});
  const auto b = run({4, 2, 0, 3, 1});
  const auto c = run({3, 4, 1, 0, 2});
  EXPECT_EQ(a, b);  // bit-identical: the tree fixes the FP association
  EXPECT_EQ(a, c);

  double wsum = 0;
  for (const double w : weights) wsum += w;
  for (std::size_t j = 0; j < dim; ++j) {
    double acc = 0;
    for (std::size_t s = 0; s < slots; ++s)
      acc += weights[s] * static_cast<double>(updates[s][j]);
    EXPECT_NEAR(a[j], static_cast<float>(acc / wsum), 1e-6f);
  }
}

TEST(StreamingAggregator, SkipsAndEmptyRound) {
  const std::size_t dim = 4;
  fl::StreamingAggregator agg(3, dim);
  const std::vector<float> u = {1, 2, 3, 4};
  agg.skip(0);
  agg.submit(1, u.data(), dim, 2.0);
  agg.skip(2);
  EXPECT_TRUE(agg.any_delivered());
  std::vector<float> out(dim, -1.0f);
  EXPECT_TRUE(agg.finish(out));
  EXPECT_EQ(out, u);  // single survivor: weight cancels

  fl::StreamingAggregator empty(2, dim);
  empty.skip(0);
  empty.skip(1);
  EXPECT_FALSE(empty.any_delivered());
  std::vector<float> keep = {9, 9, 9, 9};
  EXPECT_FALSE(empty.finish(keep));
  EXPECT_EQ(keep, (std::vector<float>{9, 9, 9, 9}));  // model untouched
}

TEST(StreamingAggregator, ContractViolationsThrow) {
  const std::size_t dim = 3;
  const std::vector<float> u = {1, 2, 3};
  EXPECT_THROW(fl::StreamingAggregator(0, dim), std::invalid_argument);
  fl::StreamingAggregator agg(2, dim);
  EXPECT_THROW(agg.submit(2, u.data(), dim, 1.0), std::out_of_range);
  EXPECT_THROW(agg.submit(0, u.data(), dim - 1, 1.0), std::invalid_argument);
  EXPECT_THROW(agg.submit(0, u.data(), dim, -1.0), std::invalid_argument);
  agg.submit(0, u.data(), dim, 1.0);
  EXPECT_THROW(agg.submit(0, u.data(), dim, 1.0), std::logic_error);
  EXPECT_THROW(agg.skip(0), std::logic_error);
  std::vector<float> out(dim);
  EXPECT_THROW(agg.finish(out), std::logic_error);  // slot 1 unresolved
  agg.skip(1);
  // The root is folded now; resolving either child again still throws and
  // leaves the result alone.
  EXPECT_THROW(agg.skip(1), std::logic_error);
  EXPECT_THROW(agg.submit(1, u.data(), dim, 1.0), std::logic_error);
  std::vector<float> wrong(dim - 1);
  EXPECT_THROW(agg.finish(wrong), std::invalid_argument);
  EXPECT_TRUE(agg.finish(out));
  EXPECT_EQ(out, u);

  fl::StreamingAggregator single(1, dim);  // the leaf is the root
  EXPECT_THROW(single.finish(out), std::logic_error);
  single.skip(0);
  EXPECT_THROW(single.submit(0, u.data(), dim, 1.0), std::logic_error);
  EXPECT_FALSE(single.finish(out));
}

// Test-local model of the fixed reduction tree, independent of the
// aggregator's bookkeeping: leaves hold w·v in double (skipped = empty),
// level by level node j folds children 2j and 2j+1 as left + right, an
// empty side passes the other through and an odd tail passes up unchanged.
// Returns false when nothing was delivered.
bool tree_reference(const std::vector<std::vector<float>>& updates,
                    const std::vector<double>& weights,
                    const std::vector<char>& skipped, std::vector<float>& out) {
  struct Acc {
    std::vector<double> v;
    double w = 0.0;
  };
  std::vector<Acc> level(updates.size());
  for (std::size_t s = 0; s < updates.size(); ++s) {
    if (skipped[s]) continue;
    level[s].w = weights[s];
    for (const float x : updates[s]) {
      level[s].v.push_back(weights[s] * static_cast<double>(x));
    }
  }
  while (level.size() > 1) {
    std::vector<Acc> up((level.size() + 1) / 2);
    for (std::size_t j = 0; j < up.size(); ++j) {
      Acc& left = level[2 * j];
      if (2 * j + 1 == level.size()) {
        up[j] = std::move(left);
        continue;
      }
      Acc& right = level[2 * j + 1];
      up[j].w = left.w + right.w;
      if (left.v.empty()) {
        up[j].v = std::move(right.v);
      } else {
        for (std::size_t i = 0; i < right.v.size(); ++i) {
          left.v[i] += right.v[i];
        }
        up[j].v = std::move(left.v);
      }
    }
    level = std::move(up);
  }
  const Acc& root = level.front();
  if (root.v.empty() || !(root.w > 0.0)) return false;
  out.resize(root.v.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(root.v[i] / root.w);
  }
  return true;
}

// tsan_smoke: concurrent submits from many threads, in a shuffled arrival
// order, must produce exactly the tree's result — the whole point of the
// fixed reduction tree. Covers 1-slot and odd-tail trees, a large cohort,
// scattered skips, fully skipped subtrees and an all-skipped round, dims
// that are not a multiple of the SIMD width, and int8 mode both with
// qint8 payloads (quantized-domain average) and without (float fallback).
TEST(StreamingAggregator, ConcurrentSubmitIsBitIdentical) {
  for (const std::size_t slots : {1, 2, 3, 5, 63, 65, 1000}) {
    for (const std::size_t dim : {13, 37}) {
      util::Rng rng(21 + slots * 7 + dim);
      std::vector<std::vector<float>> updates(slots, std::vector<float>(dim));
      std::vector<double> weights(slots);
      for (std::size_t s = 0; s < slots; ++s) {
        for (auto& x : updates[s]) x = rng.normalf(0, 1);
        weights[s] = 1.0 + static_cast<double>(s % 17);
      }
      std::vector<std::vector<std::uint8_t>> encoded(slots);
      for (std::size_t s = 0; s < slots; ++s) {
        encoded[s] = fl::wire::encode_payload(fl::wire::CodecId::kQInt8,
                                              updates[s].data(), dim);
      }
      // Skip patterns: none; scattered; the whole left half (for n >= 2 a
      // complete subtree of the root's left child, or more); everything.
      const std::vector<std::pair<const char*, std::function<bool(std::size_t)>>>
          patterns = {
              {"none", [](std::size_t) { return false; }},
              {"scattered", [](std::size_t s) { return s % 9 == 8; }},
              {"left_subtree",
               [slots](std::size_t s) { return slots > 1 && s < slots / 2; }},
              {"all", [](std::size_t) { return true; }},
          };
      for (const auto& [pattern, skip_if] : patterns) {
        std::vector<char> skipped(slots);
        for (std::size_t s = 0; s < slots; ++s) skipped[s] = skip_if(s);
        std::vector<float> expected;
        const bool expect_any =
            tree_reference(updates, weights, skipped, expected);
        for (const int mode : {0, 1, 2}) {  // float, int8 fallback, int8
          SCOPED_TRACE(::testing::Message()
                       << "slots=" << slots << " dim=" << dim << " skip="
                       << pattern << " mode=" << mode);
          const bool int8_mode = mode > 0;
          const bool with_payloads = mode == 2;
          std::vector<std::size_t> order(slots);
          for (std::size_t s = 0; s < slots; ++s) order[s] = s;
          util::Rng shuffle_rng(slots + dim + mode);
          shuffle_rng.shuffle(order);

          fl::StreamingAggregator agg(slots, dim, int8_mode);
          std::atomic<std::size_t> next{0};
          std::vector<std::thread> threads;
          for (std::size_t t = 0; t < 4; ++t) {
            threads.emplace_back([&] {
              for (std::size_t k; (k = next.fetch_add(1)) < slots;) {
                const std::size_t s = order[k];
                if (skipped[s]) {
                  agg.skip(s);
                } else {
                  agg.submit(s, updates[s].data(), dim, weights[s],
                             with_payloads ? std::vector<std::uint8_t>(
                                                 encoded[s])
                                           : std::vector<std::uint8_t>{});
                }
              }
            });
          }
          for (auto& th : threads) th.join();
          EXPECT_EQ(agg.any_delivered(), expect_any);
          std::vector<float> got(dim, -7.0f);
          ASSERT_EQ(agg.finish(got), expect_any);
          if (!expect_any) {
            EXPECT_EQ(got, std::vector<float>(dim, -7.0f));  // untouched
            continue;
          }
          if (!with_payloads) {
            EXPECT_EQ(0, std::memcmp(got.data(), expected.data(),
                                     dim * sizeof(float)));
            continue;
          }
          // Quantized domain: the slot-ordered qint8 average.
          double total = 0.0;
          std::vector<std::pair<const std::vector<std::uint8_t>*, double>>
              entries;
          for (std::size_t s = 0; s < slots; ++s) {
            if (skipped[s]) continue;
            entries.emplace_back(&encoded[s], weights[s]);
            total += weights[s];
          }
          for (auto& e : entries) e.second /= total;
          const std::vector<float> q =
              fl::wire::qint8_weighted_average(entries, dim);
          EXPECT_EQ(0, std::memcmp(got.data(), q.data(), dim * sizeof(float)));
        }
      }
    }
  }
}

// The atomic exchange that claims a leaf lets exactly one of two racing
// resolutions of the same slot through; the loser throws.
TEST(StreamingAggregator, RacingDoubleResolveThrowsExactlyOnce) {
  const std::size_t dim = 5, slots = 8;
  const std::vector<float> u(dim, 1.0f);
  for (int rep = 0; rep < 50; ++rep) {
    fl::StreamingAggregator agg(slots, dim);
    std::atomic<int> thrown{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t s = 0; s < slots; ++s) {
          try {
            if (t == 0) {
              agg.submit(s, u.data(), dim, 1.0);
            } else {
              agg.skip(s);
            }
          } catch (const std::logic_error&) {
            thrown.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(thrown.load(), static_cast<int>(slots));
    std::vector<float> out(dim);
    agg.finish(out);  // every slot resolved exactly once: no throw
  }
}

}  // namespace
