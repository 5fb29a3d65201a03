// Link model and cluster assembly.
#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

TEST(Link, TransferSecondsMatchesBandwidth) {
  sim::Link link(8.0, 0.0);  // 8 Mbps, no latency: 1 MB = 1 s
  EXPECT_NEAR(link.transfer_seconds(1e6), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(link.transfer_seconds(0.0), 0.0);
}

TEST(Link, LatencyAddsFixedCost) {
  sim::Link link(8.0, 0.25);
  EXPECT_NEAR(link.transfer_seconds(1e6), 1.25, 1e-12);
}

TEST(Link, TransfersSerialize) {
  sim::Link link(8.0, 0.0);
  const sim::Transfer t1 = link.transmit(0.0, 1e6);   // [0, 1]
  const sim::Transfer t2 = link.transmit(0.5, 1e6);   // ready at .5, starts at 1
  EXPECT_DOUBLE_EQ(t1.end, 1.0);
  EXPECT_DOUBLE_EQ(t2.start, 1.0);
  EXPECT_DOUBLE_EQ(t2.end, 2.0);
  // A transfer ready after the link is free starts immediately.
  const sim::Transfer t3 = link.transmit(5.0, 1e6);
  EXPECT_DOUBLE_EQ(t3.start, 5.0);
  EXPECT_DOUBLE_EQ(t3.end, 6.0);
}

TEST(Link, PeekDoesNotCommit) {
  sim::Link link(8.0, 0.0);
  const double peek = link.peek_finish(0.0, 1e6);
  EXPECT_DOUBLE_EQ(peek, 1.0);
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
  link.transmit(0.0, 1e6);
  EXPECT_DOUBLE_EQ(link.busy_until(), 1.0);
  EXPECT_DOUBLE_EQ(link.peek_finish(0.0, 1e6), 2.0);
}

TEST(Link, Validation) {
  EXPECT_THROW(sim::Link(0.0), std::invalid_argument);
  EXPECT_THROW(sim::Link(1.0, -0.1), std::invalid_argument);
  sim::Link link(1.0);
  EXPECT_THROW(link.transfer_seconds(-1.0), std::invalid_argument);
  EXPECT_THROW(link.transmit(-1.0, 10.0), std::invalid_argument);
}

TEST(Cluster, BuildsRequestedClients) {
  sim::ClusterOptions opts;
  opts.num_clients = 17;
  util::Rng rng(1);
  sim::Cluster cluster(opts, rng);
  EXPECT_EQ(cluster.size(), 17u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const sim::DeviceLease device = cluster.lease(i);
    EXPECT_EQ(device->id(), i);
    EXPECT_GT(device->profile().base_speed, 0.0);
  }
}

TEST(Cluster, ClientsAreHeterogeneous) {
  sim::ClusterOptions opts;
  opts.num_clients = 32;
  util::Rng rng(2);
  sim::Cluster cluster(opts, rng);
  double lo = 1e9, hi = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const double speed = cluster.lease(i)->profile().base_speed;
    lo = std::min(lo, speed);
    hi = std::max(hi, speed);
  }
  EXPECT_GT(hi / lo, 1.5);
}

TEST(Cluster, DeterministicInSeed) {
  sim::ClusterOptions opts;
  opts.num_clients = 8;
  util::Rng r1(3);
  util::Rng r2(3);
  sim::Cluster a(opts, r1);
  sim::Cluster b(opts, r2);
  for (std::size_t i = 0; i < 8; ++i) {
    const sim::DeviceLease da = a.lease(i);
    const sim::DeviceLease db = b.lease(i);
    EXPECT_DOUBLE_EQ(da->profile().base_speed, db->profile().base_speed);
    EXPECT_DOUBLE_EQ(da->compute_finish(0.0, 10.0), db->compute_finish(0.0, 10.0));
  }
}

TEST(Cluster, ComputeFinishUsesTimeline) {
  sim::ClusterOptions opts;
  opts.num_clients = 1;
  opts.dynamicity.enabled = false;
  util::Rng rng(4);
  sim::Cluster cluster(opts, rng);
  const sim::DeviceLease c = cluster.lease(0);
  const double speed = c->profile().base_speed;
  EXPECT_NEAR(c->compute_finish(2.0, speed * 3.0), 5.0, 1e-9);
}

TEST(Cluster, NonCompactOptionIsRejected) {
  sim::ClusterOptions opts;
  opts.num_clients = 4;
  opts.compact = false;
  util::Rng rng(6);
  EXPECT_THROW({ sim::Cluster cluster(opts, rng); }, std::invalid_argument);
}

}  // namespace
}  // namespace fedca
