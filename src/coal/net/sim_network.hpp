#pragma once

/// \file sim_network.hpp
/// Simulated cluster interconnect.
///
/// This is the substitution for the multi-node testbed the paper uses
/// (ROSTAM's Marvin nodes): localities live in one process and exchange
/// framed messages through this object, which imposes an explicit cost
/// model:
///
///  - `send_overhead_us`: per-message CPU cost on the *sender* — protocol
///    stack, handshaking, doorbells.  Burned as real busy-work on the
///    calling thread, which is the runtime's background-work context, so
///    it is visible to the paper's Eq. 3/4 metrics.  This is the cost
///    coalescing amortizes.
///  - `send_per_kb_us`: additional sender CPU per KiB (buffer handling).
///  - `recv_overhead_us`: per-message CPU cost on the receiver, charged by
///    the receiving parcelport when it drains its inbox (published via
///    transport::recv_overhead_us()).
///  - `wire_latency_us` and `bandwidth_bytes_per_us`: delivery time.
///    Each directed link transmits serially (a message waits for the tail
///    of the previous one), so bandwidth is a real shared resource.
///
/// A dedicated delivery thread holds a min-heap of (due-time, message)
/// and releases each message to the destination's handler when its due
/// time arrives.

#include <coal/net/transport.hpp>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace coal::net {

/// Tunable cost model, one for every link.  Defaults approximate a
/// commodity cluster's links, scaled so experiments complete in seconds
/// on a laptop.
struct cost_model
{
    double send_overhead_us = 2.0;
    double send_per_kb_us = 0.05;
    double recv_overhead_us = 2.0;
    double wire_latency_us = 5.0;
    double bandwidth_bytes_per_us = 2000.0;    ///< ≈ 2 GB/s per link

    /// Wire occupancy time for a message of `bytes` (µs).
    [[nodiscard]] double transmit_us(std::size_t bytes) const noexcept
    {
        if (bandwidth_bytes_per_us <= 0.0)
            return 0.0;
        return static_cast<double>(bytes) / bandwidth_bytes_per_us;
    }

    /// Sender CPU burn for a message of `bytes` (µs).
    [[nodiscard]] double sender_cpu_us(std::size_t bytes) const noexcept
    {
        return send_overhead_us +
            send_per_kb_us * static_cast<double>(bytes) / 1024.0;
    }
};

/// Per-directed-link traffic statistics.
struct link_stats
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
};

class sim_network final : public transport
{
public:
    /// Every link prices by `model`.
    sim_network(std::uint32_t num_localities, cost_model model);

    ~sim_network() override;

    sim_network(sim_network const&) = delete;
    sim_network& operator=(sim_network const&) = delete;

    [[nodiscard]] std::uint32_t num_localities() const noexcept override
    {
        return num_localities_;
    }

    void set_delivery_handler(
        std::uint32_t dst, delivery_handler handler) override;

    void send(std::uint32_t src, std::uint32_t dst,
        serialization::wire_message&& message) override;

    [[nodiscard]] double recv_overhead_us() const noexcept override
    {
        return model_.recv_overhead_us;
    }

    [[nodiscard]] std::uint64_t in_flight() const noexcept override
    {
        return in_flight_.load(std::memory_order_acquire);
    }

    void drain() override;

    [[nodiscard]] transport_stats stats() const override;

    [[nodiscard]] link_stats link(
        std::uint32_t src, std::uint32_t dst) const;

    [[nodiscard]] cost_model const& model() const noexcept
    {
        return model_;
    }

    void shutdown() override;

    /// Chaos API: while a locality is down the sim drops every message to
    /// or from it — including those already on the wire (in the delivery
    /// heap), which vanish immediately, as a crashed NIC's in-flight
    /// packets would.  Restart lifts the blackhole; the locality's links
    /// start fresh (no queued backlog from its dead incarnation).
    bool set_locality_down(std::uint32_t locality, bool down) override;

private:
    struct pending_message
    {
        std::int64_t due_ns;    // steady-clock ns when delivery happens
        std::uint64_t seq;      // tie-break: FIFO for equal due times
        std::uint32_t src;
        std::uint32_t dst;
        serialization::shared_buffer payload;
    };

    struct due_order
    {
        bool operator()(
            pending_message const& a, pending_message const& b) const noexcept
        {
            if (a.due_ns != b.due_ns)
                return a.due_ns > b.due_ns;    // min-heap on due time
            return a.seq > b.seq;
        }
    };

    void delivery_loop();

    [[nodiscard]] std::size_t link_index(
        std::uint32_t src, std::uint32_t dst) const noexcept
    {
        return static_cast<std::size_t>(src) * num_localities_ + dst;
    }

    std::uint32_t num_localities_;
    cost_model model_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::priority_queue<pending_message, std::vector<pending_message>,
        due_order>
        heap_;
    std::vector<delivery_handler> handlers_;
    std::vector<std::int64_t> link_free_ns_;    // per-link tail of transmission
    std::vector<link_stats> link_stats_;
    std::vector<char> down_;    // chaos API: localities currently crashed
    std::uint64_t next_seq_ = 0;
    bool stopping_ = false;

    std::atomic<std::uint64_t> in_flight_{0};
    std::atomic<std::uint64_t> messages_sent_{0};
    std::atomic<std::uint64_t> bytes_sent_{0};
    std::atomic<std::uint64_t> messages_delivered_{0};
    std::atomic<std::uint64_t> bytes_delivered_{0};
    std::atomic<std::uint64_t> messages_dropped_{0};

    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;

    std::thread delivery_thread_;
};

}    // namespace coal::net
