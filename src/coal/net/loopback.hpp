#pragma once

/// \file loopback.hpp
/// Zero-cost transport: delivers synchronously on the sender's thread
/// with no modeled overheads.  Used by unit tests that need
/// timing-independent behaviour, and as the "infinitely fast network"
/// baseline in ablation benches.

#include <coal/net/transport.hpp>

#include <atomic>
#include <mutex>
#include <vector>

namespace coal::net {

class loopback_transport final : public transport
{
public:
    explicit loopback_transport(std::uint32_t num_localities);

    [[nodiscard]] std::uint32_t num_localities() const noexcept override
    {
        return num_localities_;
    }

    void set_delivery_handler(
        std::uint32_t dst, delivery_handler handler) override;

    void send(std::uint32_t src, std::uint32_t dst,
        serialization::wire_message&& message) override;

    [[nodiscard]] std::uint64_t in_flight() const noexcept override
    {
        return 0;    // delivery is synchronous
    }

    void drain() override
    {
    }

    [[nodiscard]] transport_stats stats() const override;

    void shutdown() override;

    /// Chaos API: a down locality's sends and receives are dropped
    /// (counted), mirroring the sim_network semantics without a wire.
    bool set_locality_down(std::uint32_t locality, bool down) override;

private:
    std::uint32_t num_localities_;
    mutable std::mutex mutex_;
    std::vector<delivery_handler> handlers_;
    std::vector<char> down_;
    bool stopped_ = false;

    std::atomic<std::uint64_t> messages_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> delivered_{0};
    std::atomic<std::uint64_t> bytes_delivered_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

}    // namespace coal::net
