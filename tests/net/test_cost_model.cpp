// Cost-model arithmetic: pure functions, no timing dependence.

#include <coal/net/sim_network.hpp>

#include <gtest/gtest.h>

namespace {

using coal::net::cost_model;

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

}    // namespace
