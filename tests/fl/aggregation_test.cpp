// Partial collection and weighted aggregation invariants.
#include <gtest/gtest.h>

#include "fl/aggregation.hpp"

namespace fedca {
namespace {

fl::ClientRoundResult make_result(std::size_t id, double arrival, double weight,
                                  std::vector<float> update) {
  fl::ClientRoundResult r;
  r.client_id = id;
  r.arrival_time = arrival;
  r.weight = weight;
  r.applied_update.names = {"layer"};
  const std::size_t n = update.size();
  r.applied_update.tensors = {nn::Tensor({n}, std::move(update))};
  return r;
}

nn::ModelState zero_state(std::size_t n) {
  nn::ModelState s;
  s.names = {"layer"};
  s.tensors = {nn::Tensor({n})};
  return s;
}

// The earliest-arrival selection a StreamingQuorum keeps after every slot
// of `results` was offered, in `order` (default: slot order).
std::vector<std::size_t> select(std::vector<fl::ClientRoundResult>& results, double fraction,
                                std::vector<std::size_t> order = {}) {
  if (order.empty()) {
    for (std::size_t i = 0; i < results.size(); ++i) order.push_back(i);
  }
  fl::StreamingQuorum quorum(&results, fl::collect_quota(results.size(), fraction),
                             fl::kNoDeadline);
  for (const std::size_t i : order) quorum.offer(i);
  return quorum.collected();
}

TEST(SelectEarliest, PicksEarliestArrivals) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 5.0, 1, {0}));
  results.push_back(make_result(1, 1.0, 1, {0}));
  results.push_back(make_result(2, 3.0, 1, {0}));
  results.push_back(make_result(3, 2.0, 1, {0}));
  EXPECT_EQ(select(results, 0.5), (std::vector<std::size_t>{1, 3}));
  // Payloads outside the quorum are freed; bookkeeping stays.
  EXPECT_TRUE(results[0].applied_update.tensors.empty());
  EXPECT_EQ(results[1].applied_update.tensors.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].arrival_time, 5.0);
}

TEST(SelectEarliest, NinetyPercentQuota) {
  std::vector<fl::ClientRoundResult> results;
  for (std::size_t i = 0; i < 10; ++i) {
    results.push_back(make_result(i, static_cast<double>(i), 1, {0}));
  }
  const auto sel = select(results, 0.9, {9, 3, 0, 8, 1, 7, 2, 6, 4, 5});
  EXPECT_EQ(sel.size(), 9u);  // ceil(0.9 * 10) — drops exactly the straggler
  EXPECT_EQ(sel.back(), 8u);
}

TEST(SelectEarliest, CeilingRounding) {
  std::vector<fl::ClientRoundResult> results;
  for (std::size_t i = 0; i < 7; ++i) {
    results.push_back(make_result(i, static_cast<double>(i), 1, {0}));
  }
  std::vector<fl::ClientRoundResult> copy = results;
  EXPECT_EQ(select(results, 0.9).size(), 7u);  // ceil(6.3) = 7
  EXPECT_EQ(select(copy, 0.5).size(), 4u);     // ceil(3.5) = 4
}

TEST(SelectEarliest, TieBreaksByClientId) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(5, 1.0, 1, {0}));
  results.push_back(make_result(2, 1.0, 1, {0}));
  results.push_back(make_result(9, 1.0, 1, {0}));
  for (const std::vector<std::size_t>& order :
       {std::vector<std::size_t>{0, 1, 2}, std::vector<std::size_t>{2, 1, 0}}) {
    std::vector<fl::ClientRoundResult> copy = results;
    const auto sel = select(copy, 0.3, order);  // ceil(0.9) = 1
    ASSERT_EQ(sel.size(), 1u);
    EXPECT_EQ(copy[sel[0]].client_id, 2u);
  }
}

TEST(SelectEarliest, EmptyAndFull) {
  std::vector<fl::ClientRoundResult> none;
  EXPECT_TRUE(select(none, 0.9).empty());
  std::vector<fl::ClientRoundResult> one;
  one.push_back(make_result(0, 1.0, 1, {0}));
  EXPECT_EQ(select(one, 0.01).size(), 1u);  // at least one
}

TEST(SelectEarliest, IneligibleResultsNeverCollected) {
  // The quota counts planned participants, so failures and late arrivals
  // shrink the collection instead of pulling in later arrivals.
  std::vector<fl::ClientRoundResult> results;
  for (std::size_t i = 0; i < 4; ++i) {
    results.push_back(make_result(i, static_cast<double>(i), 1, {0}));
  }
  results[0].failed = true;
  fl::StreamingQuorum quorum(&results, fl::collect_quota(4, 0.75), /*timeout_cut=*/2.5);
  for (std::size_t i = 0; i < results.size(); ++i) quorum.offer(i);
  EXPECT_EQ(quorum.collected(), (std::vector<std::size_t>{1, 2}));  // 3 is late
}

TEST(Aggregate, WeightedMean) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 1.0, {1.0f, 0.0f}));
  results.push_back(make_result(1, 2.0, 3.0, {5.0f, 4.0f}));
  nn::ModelState global = zero_state(2);
  fl::apply_aggregated_update(global, results, {0, 1});
  EXPECT_FLOAT_EQ(global.tensors[0][0], 4.0f);  // (1*1 + 3*5) / 4
  EXPECT_FLOAT_EQ(global.tensors[0][1], 3.0f);  // (1*0 + 3*4) / 4
}

TEST(Aggregate, SubsetOnly) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 1.0, {2.0f}));
  results.push_back(make_result(1, 2.0, 1.0, {100.0f}));
  nn::ModelState global = zero_state(1);
  fl::apply_aggregated_update(global, results, {0});
  EXPECT_FLOAT_EQ(global.tensors[0][0], 2.0f);
}

TEST(Aggregate, PermutationInvariant) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 2.0, {1.0f}));
  results.push_back(make_result(1, 2.0, 5.0, {3.0f}));
  results.push_back(make_result(2, 3.0, 1.0, {-4.0f}));
  nn::ModelState a = zero_state(1);
  nn::ModelState b = zero_state(1);
  fl::apply_aggregated_update(a, results, {0, 1, 2});
  fl::apply_aggregated_update(b, results, {2, 0, 1});
  EXPECT_FLOAT_EQ(a.tensors[0][0], b.tensors[0][0]);
}

TEST(Aggregate, AddsOnTopOfExistingGlobal) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 1.0, {1.0f}));
  nn::ModelState global = zero_state(1);
  global.tensors[0][0] = 10.0f;
  fl::apply_aggregated_update(global, results, {0});
  EXPECT_FLOAT_EQ(global.tensors[0][0], 11.0f);
}

TEST(Aggregate, Validation) {
  std::vector<fl::ClientRoundResult> results;
  results.push_back(make_result(0, 1.0, 0.0, {1.0f}));
  nn::ModelState global = zero_state(1);
  EXPECT_THROW(fl::apply_aggregated_update(global, results, {}), std::invalid_argument);
  EXPECT_THROW(fl::apply_aggregated_update(global, results, {0}),
               std::invalid_argument);  // zero total weight
  results[0].weight = 1.0;
  nn::ModelState wrong = zero_state(2);
  EXPECT_THROW(fl::apply_aggregated_update(wrong, results, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace fedca
