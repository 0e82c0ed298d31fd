// Micro benchmarks — ML substrate (google-benchmark).
//
// Calibrates the per-step costs behind the CostModel: MF SGD steps at
// several embedding sizes, DNN minibatch training at the paper's 215k-
// parameter configuration, model serialization, the two merge flavours
// (pairwise RMW average and Metropolis–Hastings weighted D-PSGD average),
// and the raw-data merge's duplicate filter.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "data/movielens.hpp"
#include "ml/dnn.hpp"
#include "ml/mf.hpp"
#include "support/flat_set32.hpp"
#include "support/rng.hpp"

namespace {

using namespace rex;

data::Dataset bench_dataset() {
  data::SyntheticConfig config;
  config.n_users = 610;
  config.n_items = 9000;
  config.n_ratings = 20000;
  config.seed = 11;
  return data::generate_synthetic(config);
}

ml::MfConfig mf_config(const data::Dataset& d, std::size_t k) {
  ml::MfConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;
  config.embedding_dim = k;
  config.global_mean = static_cast<float>(d.mean_rating());
  return config;
}

void BM_MfSgdSteps(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(1);
  ml::MfModel model(mf_config(d, static_cast<std::size_t>(state.range(0))),
                    rng);
  Rng train_rng(2);
  for (auto _ : state) {
    model.train_epoch(d.ratings, train_rng);  // 500 steps (the paper's rate)
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              model.config().sgd_steps_per_epoch));
}
BENCHMARK(BM_MfSgdSteps)->Arg(10)->Arg(20)->Arg(50);

void BM_MfPredictRmse(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(3);
  ml::MfModel model(mf_config(d, 10), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.rmse(d.ratings));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.ratings.size()));
}
BENCHMARK(BM_MfPredictRmse);

void BM_MfSerialize(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(4);
  ml::MfModel model(mf_config(d, 10), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.wire_size()));
}
BENCHMARK(BM_MfSerialize);

void BM_MfDeserialize(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(5);
  ml::MfModel model(mf_config(d, 10), rng);
  const Bytes blob = model.serialize();
  for (auto _ : state) {
    model.deserialize(blob);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_MfDeserialize);

void BM_MfMergeRmw(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(6);
  ml::MfModel model(mf_config(d, 10), rng);
  Rng rng2(7);
  ml::MfModel alien(mf_config(d, 10), rng2);
  Rng train_rng(8);
  model.train_epoch(d.ratings, train_rng);
  alien.train_epoch(d.ratings, train_rng);
  for (auto _ : state) {
    const ml::MergeSource source{&alien, 0.5};
    model.merge(std::span<const ml::MergeSource>(&source, 1), 0.5);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.parameter_count()));
}
BENCHMARK(BM_MfMergeRmw);

void BM_MfMergeDpsgd(benchmark::State& state) {
  // Metropolis-Hastings weighted merge over `range(0)` neighbor models.
  const data::Dataset d = bench_dataset();
  Rng rng(9);
  ml::MfModel model(mf_config(d, 10), rng);
  const std::size_t peers = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<ml::MfModel>> aliens;
  std::vector<ml::MergeSource> sources;
  for (std::size_t p = 0; p < peers; ++p) {
    Rng peer_rng(100 + p);
    aliens.push_back(
        std::make_unique<ml::MfModel>(mf_config(d, 10), peer_rng));
    sources.push_back(
        ml::MergeSource{aliens.back().get(), 0.5 / static_cast<double>(peers)});
  }
  for (auto _ : state) {
    model.merge(sources, 0.5);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.parameter_count()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_MfMergeDpsgd)->Arg(2)->Arg(6)->Arg(27);

void BM_DnnTrainBatch(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(10);
  ml::DnnConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;  // ~215k parameters at the paper's defaults
  ml::DnnModel model(config, rng);
  Rng train_rng(11);
  std::vector<data::Rating> batch(config.batch_size);
  for (auto& r : batch) {
    r = d.ratings[train_rng.uniform(d.ratings.size())];
  }
  for (auto _ : state) {
    model.train_batch(batch, train_rng);
    benchmark::DoNotOptimize(model.parameter_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_DnnTrainBatch);

void BM_DnnSerialize(benchmark::State& state) {
  const data::Dataset d = bench_dataset();
  Rng rng(12);
  ml::DnnConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;
  ml::DnnModel model(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.wire_size()));
}
BENCHMARK(BM_DnnSerialize);

// The raw-data merge's duplicate filter (Algorithm 2 line 16) at the Table
// II shape, 610 users x 9,000 items: one epoch's shares, 9,000 cell ids of
// which 59% the node already holds, batch-inserted into a store index of
// 33k keys. An iteration visits 512 such tables in turn, 128 MiB of slots
// in all (more than a 105 MiB L3), so each table is cold when its batch
// comes, as a node's is when its turn in a round comes (610 nodes, about
// 1.9 MiB of state each). The tables go back to their 33k keys between
// iterations, untimed.
void BM_DuplicateFilter(benchmark::State& state) {
  constexpr std::size_t kTables = 512;
  constexpr std::size_t kHeld = 33000;
  constexpr std::size_t kBatch = 9000;
  constexpr std::size_t kDuplicates = kBatch * 59 / 100;
  constexpr std::uint64_t kUsers = 610;
  constexpr std::uint64_t kItems = 9000;
  Rng rng(21);
  const auto draw_cell = [&rng] {
    const std::uint64_t user = rng.uniform(kUsers);
    return static_cast<std::uint32_t>(user * kItems + rng.uniform(kItems));
  };
  std::vector<FlatSet32> held(kTables);
  std::vector<std::vector<std::uint32_t>> batches(kTables);
  for (std::size_t t = 0; t < kTables; ++t) {
    std::vector<std::uint32_t> ids;
    while (ids.size() < kHeld) {
      const std::uint32_t id = draw_cell();
      if (held[t].insert(id)) ids.push_back(id);
    }
    std::vector<std::uint32_t>& batch = batches[t];
    FlatSet32 fresh;  // new ids appear once per batch
    for (std::size_t i = 0; i < kDuplicates; ++i) {
      batch.push_back(ids[rng.uniform(ids.size())]);
    }
    while (batch.size() < kBatch) {
      const std::uint32_t id = draw_cell();
      if (!held[t].contains(id) && fresh.insert(id)) batch.push_back(id);
    }
    rng.shuffle(batch);
  }
  std::vector<FlatSet32> tables = held;
  std::size_t inserted = 0;
  for (auto _ : state) {
    for (std::size_t t = 0; t < kTables; ++t) {
      tables[t].insert_batch(
          batches[t], [](std::uint32_t id) { return id; },
          [&inserted](std::uint32_t, bool added) { inserted += added; });
    }
    benchmark::DoNotOptimize(inserted);
    state.PauseTiming();
    tables = held;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTables * kBatch));
  state.counters["new_frac"] = static_cast<double>(inserted) /
                               static_cast<double>(state.iterations() *
                                                   kTables * kBatch);
}
BENCHMARK(BM_DuplicateFilter);

}  // namespace

BENCHMARK_MAIN();
