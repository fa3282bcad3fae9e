#include <coal/net/loopback.hpp>

#include <gtest/gtest.h>

namespace {

using coal::net::loopback_transport;
using coal::serialization::byte_buffer;
using coal::serialization::shared_buffer;

TEST(Loopback, SynchronousDelivery)
{
    loopback_transport net(2);
    int delivered = 0;
    net.set_delivery_handler(1, [&](std::uint32_t src, shared_buffer&& buf) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(buf.size(), 3u);
        ++delivered;
    });

    net.send(0, 1, byte_buffer{1, 2, 3});
    // No drain needed: delivery happened inside send().
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Loopback, ZeroModeledCosts)
{
    loopback_transport net(2);
    EXPECT_DOUBLE_EQ(net.recv_overhead_us(), 0.0);
}

TEST(Loopback, StatsMirrorTraffic)
{
    loopback_transport net(2);
    net.set_delivery_handler(0, [](std::uint32_t, shared_buffer&&) {});
    net.send(1, 0, byte_buffer(10, 0));
    net.send(1, 0, byte_buffer(20, 0));
    auto const s = net.stats();
    EXPECT_EQ(s.messages_sent, 2u);
    EXPECT_EQ(s.bytes_sent, 30u);
    EXPECT_EQ(s.messages_delivered, 2u);
}

TEST(Loopback, ShutdownStopsDelivery)
{
    loopback_transport net(2);
    int delivered = 0;
    net.set_delivery_handler(
        1, [&](std::uint32_t, shared_buffer&&) { ++delivered; });
    net.shutdown();
    net.send(0, 1, byte_buffer{1});
    EXPECT_EQ(delivered, 0);
}

TEST(Loopback, MissingHandlerIsSafe)
{
    loopback_transport net(2);
    net.send(0, 1, byte_buffer{1});    // no handler installed: dropped
    EXPECT_EQ(net.stats().messages_sent, 1u);
}

TEST(Loopback, DrainIsImmediate)
{
    loopback_transport net(1);
    net.drain();    // no-op by construction
    SUCCEED();
}

}    // namespace
