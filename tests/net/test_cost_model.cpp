// Cost-model arithmetic: pure functions, no timing dependence.

#include <coal/net/sim_network.hpp>
#include <coal/net/topology.hpp>

#include <gtest/gtest.h>

namespace {

using coal::net::cost_model;
using coal::net::link_tier;
using coal::net::topology;

TEST(CostModel, TransmitTimeScalesWithSize)
{
    cost_model m;
    m.bandwidth_bytes_per_us = 1000.0;
    EXPECT_DOUBLE_EQ(m.transmit_us(0), 0.0);
    EXPECT_DOUBLE_EQ(m.transmit_us(1000), 1.0);
    EXPECT_DOUBLE_EQ(m.transmit_us(5000), 5.0);
}

TEST(CostModel, ZeroBandwidthMeansFreeTransmit)
{
    cost_model m;
    m.bandwidth_bytes_per_us = 0.0;    // "infinite" wire, modeling off
    EXPECT_DOUBLE_EQ(m.transmit_us(1 << 20), 0.0);
}

TEST(CostModel, SenderCpuHasFixedAndPerKbParts)
{
    cost_model m;
    m.send_overhead_us = 3.0;
    m.send_per_kb_us = 2.0;
    EXPECT_DOUBLE_EQ(m.sender_cpu_us(0), 3.0);
    EXPECT_DOUBLE_EQ(m.sender_cpu_us(1024), 5.0);
    EXPECT_DOUBLE_EQ(m.sender_cpu_us(2048), 7.0);
}

TEST(CostModel, CoalescingAmortizationProperty)
{
    // The core premise of the paper in cost-model terms: sending k
    // parcels of size s as ONE message costs less sender CPU than k
    // messages, and the saving is (k-1) * fixed overhead.
    cost_model m;
    m.send_overhead_us = 2.0;
    m.send_per_kb_us = 0.5;

    std::size_t const s = 64;
    for (std::size_t k : {2u, 4u, 16u, 128u})
    {
        double const separate =
            static_cast<double>(k) * m.sender_cpu_us(s);
        double const coalesced = m.sender_cpu_us(k * s);
        EXPECT_NEAR(separate - coalesced,
            static_cast<double>(k - 1) * m.send_overhead_us, 1e-9)
            << "k=" << k;
        EXPECT_LT(coalesced, separate);
    }
}

TEST(CostModel, IntraNodeTierIsCheaperEverywhere)
{
    cost_model const inter;    // stock defaults price the NIC path
    cost_model const intra = cost_model::intra_node_defaults();
    EXPECT_LT(intra.send_overhead_us, inter.send_overhead_us);
    EXPECT_LT(intra.send_per_kb_us, inter.send_per_kb_us);
    EXPECT_LT(intra.recv_overhead_us, inter.recv_overhead_us);
    EXPECT_LT(intra.wire_latency_us, inter.wire_latency_us);
    EXPECT_GT(intra.bandwidth_bytes_per_us, inter.bandwidth_bytes_per_us);
    // Same message, both tiers: the shared-memory hop must be strictly
    // cheaper in sender CPU and wire occupancy.
    EXPECT_LT(intra.sender_cpu_us(4096), inter.sender_cpu_us(4096));
    EXPECT_LT(intra.transmit_us(4096), inter.transmit_us(4096));
}

TEST(CostModel, TopologyClassifiesLinksByTier)
{
    topology const topo{8, 2};    // nodes {0..3} and {4..7}
    ASSERT_TRUE(topo.enabled());
    EXPECT_EQ(topo.node_size(), 4u);
    EXPECT_EQ(topo.node_of(3), 0u);
    EXPECT_EQ(topo.node_of(4), 1u);
    EXPECT_EQ(topo.tier_of(0, 3), link_tier::intra_node);
    EXPECT_EQ(topo.tier_of(3, 4), link_tier::inter_node);
    EXPECT_EQ(topo.tier_of(7, 4), link_tier::intra_node);
}

TEST(CostModel, SimNetworkPricesLinksByTier)
{
    cost_model inter;
    inter.recv_overhead_us = 9.0;
    cost_model intra = cost_model::intra_node_defaults();
    intra.recv_overhead_us = 0.25;

    coal::net::sim_network net(topology{4, 2}, inter, intra);
    // Same node -> intra pricing; across the node boundary -> inter.
    EXPECT_DOUBLE_EQ(net.model_for(0, 1).recv_overhead_us, 0.25);
    EXPECT_DOUBLE_EQ(net.model_for(0, 2).recv_overhead_us, 9.0);
    EXPECT_DOUBLE_EQ(net.recv_overhead_us(2, 3), 0.25);
    EXPECT_DOUBLE_EQ(net.recv_overhead_us(1, 2), 9.0);
    net.shutdown();
}

TEST(CostModel, FlatNetworkClassifiesEverythingInterNode)
{
    cost_model const m;
    coal::net::sim_network net(4, m);
    EXPECT_FALSE(net.topo().enabled());
    EXPECT_EQ(net.topo().tier_of(0, 1), link_tier::inter_node);
    EXPECT_DOUBLE_EQ(net.recv_overhead_us(0, 1), m.recv_overhead_us);
    net.shutdown();
}

}    // namespace
