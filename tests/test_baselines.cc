#include <gtest/gtest.h>

#include "baselines/engine.h"
#include "common/synthetic.h"

namespace manu {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opts_.num_rows = 3000;
    opts_.dim = 24;
    opts_.num_clusters = 64;
    opts_.cluster_spread = 0.2;
    data_ = MakeClusteredDataset(opts_);
    queries_ = MakeQueries(opts_, 30, 7);
    truth_ = BruteForceGroundTruth(data_, queries_, 10);
  }

  double RecallOf(SearchEngine& engine, double knob) {
    double sum = 0;
    for (int64_t q = 0; q < queries_.NumRows(); ++q) {
      auto hits = engine.Search(queries_.Row(q), 10, knob);
      if (hits.ok()) sum += RecallAtK(hits.value(), truth_[q], 10);
    }
    return sum / static_cast<double>(queries_.NumRows());
  }

  SyntheticOptions opts_;
  VectorDataset data_;
  VectorDataset queries_;
  std::vector<std::vector<Neighbor>> truth_;
};

TEST_F(EngineTest, AllEnginesReachHighRecallAtMaxKnob) {
  std::vector<std::unique_ptr<SearchEngine>> engines;
  engines.push_back(MakeManuEngine(IndexType::kIvfFlat));
  engines.push_back(MakeManuEngine(IndexType::kHnsw));
  engines.push_back(MakeEsLikeEngine(/*disk_read_micros=*/1));
  engines.push_back(MakeVearchLikeEngine());
  engines.push_back(MakeValdLikeEngine());
  engines.push_back(MakeVespaLikeEngine());
  for (auto& engine : engines) {
    ASSERT_TRUE(engine->Build(data_).ok()) << engine->name();
    const double recall = RecallOf(*engine, 1.0);
    EXPECT_GE(recall, 0.85) << engine->name();
  }
}

TEST_F(EngineTest, KnobTradesRecallMonotonically) {
  auto engine = MakeManuEngine(IndexType::kIvfFlat);
  ASSERT_TRUE(engine->Build(data_).ok());
  const double low = RecallOf(*engine, 0.02);
  const double high = RecallOf(*engine, 0.8);
  EXPECT_GE(high, low);
  EXPECT_GE(high, 0.9);
}

TEST_F(EngineTest, VearchAggregationPreservesResults) {
  // The three-layer pipeline must return the same hits as a direct engine
  // at an exhaustive knob (serialization hops must not lose or corrupt).
  auto direct = MakeManuEngine(IndexType::kIvfFlat, /*num_segments=*/4);
  auto vearch = MakeVearchLikeEngine(/*num_searchers=*/4);
  ASSERT_TRUE(direct->Build(data_).ok());
  ASSERT_TRUE(vearch->Build(data_).ok());
  for (int64_t q = 0; q < 10; ++q) {
    auto a = direct->Search(queries_.Row(q), 10, 1.0);
    auto b = vearch->Search(queries_.Row(q), 10, 1.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size());
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].id, b.value()[i].id) << "query " << q;
    }
  }
}

}  // namespace
}  // namespace manu
