#pragma once

/// \file faulty_transport.hpp
/// Fault-injecting decorator over any transport.
///
/// Wraps an inner transport (sim_network, loopback, ...) and perturbs
/// traffic according to a seeded, deterministic `fault_plan`: per-link
/// drop probability, duplication, reordering, and timed link blackouts.
/// Faults are decided by hashing (seed, link, per-link message ordinal),
/// so the fault pattern for a given traffic sequence is reproducible
/// across runs and independent of thread interleavings on other links.
///
/// Reordering is modeled without an extra thread: a reorder-rolled
/// message is parked in a one-deep per-link slot and released right
/// *after* the next delivery on that link (a pairwise swap).  A parked
/// message therefore never starves as long as traffic flows; drain()
/// flushes parked messages, shutdown() drops them (counted).
///
/// The decorator extends transport_stats with drops_injected /
/// duplicates_injected so benches and counters can tell injected loss
/// from organic loss.

#include <coal/net/transport.hpp>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace coal {
class config;
}

namespace coal::net {

/// Per-directed-link drop-rate override.
struct link_fault
{
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    double drop_probability = 0.0;
};

/// A timed window during which every message on the matching link(s) is
/// dropped.  Times are µs relative to faulty_transport construction.
/// `any_locality` in src/dst acts as a wildcard, so a single entry can
/// express a full partition.
struct blackout_window
{
    static constexpr std::uint32_t any_locality = 0xffffffffu;

    std::uint32_t src = any_locality;
    std::uint32_t dst = any_locality;
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;

    [[nodiscard]] bool matches(
        std::uint32_t s, std::uint32_t d, std::int64_t t_us) const noexcept
    {
        return (src == any_locality || src == s) &&
            (dst == any_locality || dst == d) && t_us >= start_us &&
            t_us < end_us;
    }
};

/// Deterministic fault schedule.  All probabilities are in [0, 1].
struct fault_plan
{
    std::uint64_t seed = 0x5eedf001u;
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
    double reorder_probability = 0.0;
    std::vector<link_fault> link_overrides;    ///< replace the global drop rate
    std::vector<blackout_window> blackouts;

    /// True when any fault can ever fire.
    [[nodiscard]] bool active() const noexcept;

    /// Effective drop probability for a directed link.
    [[nodiscard]] double drop_for(
        std::uint32_t src, std::uint32_t dst) const noexcept;

    /// Read `fault.*` keys: fault.seed, fault.drop, fault.duplicate,
    /// fault.reorder, and one optional blackout via fault.blackout.start_us
    /// / fault.blackout.end_us / fault.blackout.src / fault.blackout.dst.
    [[nodiscard]] static fault_plan from_config(config const& cfg);

    /// Reproducibility hook shared by every fault/chaos schedule: returns
    /// the `COAL_FAULT_SEED` environment override when set (so a flaky
    /// run's logged seed can be replayed exactly), `fallback` otherwise.
    [[nodiscard]] static std::uint64_t resolve_seed(
        std::uint64_t fallback) noexcept;
};

class faulty_transport final : public transport
{
public:
    /// Owning: the decorator manages the inner transport's lifetime.
    faulty_transport(std::unique_ptr<transport> inner, fault_plan plan);

    /// Non-owning: caller keeps the inner transport alive.
    faulty_transport(transport& inner, fault_plan plan);

    ~faulty_transport() override;

    faulty_transport(faulty_transport const&) = delete;
    faulty_transport& operator=(faulty_transport const&) = delete;

    [[nodiscard]] std::uint32_t num_localities() const noexcept override
    {
        return inner_->num_localities();
    }

    void set_delivery_handler(
        std::uint32_t dst, delivery_handler handler) override;

    void send(std::uint32_t src, std::uint32_t dst,
        serialization::wire_message&& message) override;

    [[nodiscard]] double recv_overhead_us() const noexcept override
    {
        return inner_->recv_overhead_us();
    }

    [[nodiscard]] std::uint64_t in_flight() const noexcept override
    {
        return inner_->in_flight() +
            held_count_.load(std::memory_order_acquire);
    }

    void drain() override;

    [[nodiscard]] transport_stats stats() const override;

    [[nodiscard]] fault_plan const& plan() const noexcept
    {
        return plan_;
    }

    void shutdown() override;

    /// Chaos API: while a locality is down the decorator drops every
    /// message to or from it — outbound in send(), inbound in the inner
    /// transport's delivery callback, and anything reorder-parked on its
    /// links — so the chaos API works over *any* inner transport.  Also
    /// forwarded to the inner transport when it implements the API
    /// (sim_network purges its wire heap too).
    bool set_locality_down(std::uint32_t locality, bool down) override;

private:
    void on_deliver(std::uint32_t src, std::uint32_t dst,
        serialization::shared_buffer&& buffer);

    /// Release every parked message to its handler.  Returns how many.
    std::size_t release_held();

    [[nodiscard]] static std::uint64_t link_key(
        std::uint32_t src, std::uint32_t dst) noexcept
    {
        return (static_cast<std::uint64_t>(src) << 32) | dst;
    }

    struct held_message
    {
        std::uint32_t src;
        serialization::shared_buffer payload;
    };

    std::unique_ptr<transport> owned_;
    transport* inner_;
    fault_plan plan_;
    std::int64_t const epoch_ns_;    ///< blackout windows are relative to this

    mutable std::mutex mutex_;
    std::unordered_map<std::uint32_t, delivery_handler> handlers_;
    std::unordered_map<std::uint64_t, std::uint64_t> send_ordinal_;
    std::unordered_map<std::uint64_t, std::uint64_t> recv_ordinal_;
    std::unordered_map<std::uint64_t, held_message> held_;
    std::vector<char> down_;    // chaos API: crashed localities (grown lazily)
    bool stopped_ = false;

    [[nodiscard]] bool is_down(std::uint32_t locality) const noexcept
    {
        return locality < down_.size() && down_[locality] != 0;
    }

    std::atomic<std::uint64_t> held_count_{0};
    std::atomic<std::uint64_t> messages_sent_{0};
    std::atomic<std::uint64_t> bytes_sent_{0};
    std::atomic<std::uint64_t> messages_delivered_{0};
    std::atomic<std::uint64_t> bytes_delivered_{0};
    std::atomic<std::uint64_t> messages_dropped_{0};
    std::atomic<std::uint64_t> drops_injected_{0};
    std::atomic<std::uint64_t> duplicates_injected_{0};
};

}    // namespace coal::net
