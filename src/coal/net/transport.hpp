#pragma once

/// \file transport.hpp
/// Abstract byte transport between localities — the seam where HPX would
/// plug a TCP or MPI parcelport.  send() accepts a scatter-gather
/// `wire_message` (fragment chain); a transport that needs contiguity
/// flattens exactly once at this boundary — for a single-fragment message
/// that is a zero-copy move-out, and any real gather is counted by the
/// buffer pool.  Delivery hands the receiver one contiguous refcounted
/// `shared_buffer` (whole framed messages, never partial fragments).
///
/// Delivery handlers are invoked on a transport-owned thread (or inline
/// for the loopback); they must be cheap — the parcel layer's handler
/// only moves the buffer into the destination's inbox queue.

#include <coal/serialization/buffer.hpp>
#include <coal/serialization/wire_message.hpp>

#include <cstdint>
#include <functional>

namespace coal::net {

/// Statistics every transport keeps (feeds /messages, /data and /net
/// counters).  Conservation invariant at quiescence:
/// `messages_sent == messages_delivered + messages_dropped`.
struct transport_stats
{
    std::uint64_t messages_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t bytes_delivered = 0;
    /// Messages accepted by send() that will never reach a handler:
    /// shutdown races, unregistered handlers, and injected faults.
    std::uint64_t messages_dropped = 0;
    /// Subset of messages_dropped caused by a faulty_transport fault plan.
    std::uint64_t drops_injected = 0;
    /// Extra copies forged by a faulty_transport fault plan.
    std::uint64_t duplicates_injected = 0;
};

class transport
{
public:
    /// Called with (source locality, wire buffer) when a message arrives.
    using delivery_handler =
        std::function<void(std::uint32_t, serialization::shared_buffer&&)>;

    virtual ~transport() = default;

    /// Localities this transport connects: every id in [0, n) is valid,
    /// and per-peer tables above it are sized by it.
    [[nodiscard]] virtual std::uint32_t num_localities() const noexcept = 0;

    /// Register the receive handler for a destination locality.  Must be
    /// called for every locality before traffic starts.
    virtual void set_delivery_handler(
        std::uint32_t dst, delivery_handler handler) = 0;

    /// Transmit a wire message (fragment chain).  Charges the modeled
    /// per-message sender CPU cost on the calling thread (real busy
    /// work), then schedules delivery.  Thread-safe.
    virtual void send(std::uint32_t src, std::uint32_t dst,
        serialization::wire_message&& message) = 0;

    /// Per-message CPU cost the *receiver* should charge when it picks a
    /// message out of its inbox (µs).  The transport cannot spin on the
    /// receiver's behalf — the cost must land on the receiving worker's
    /// background accounting — so it publishes the figure instead.  Real
    /// and timing-exact wires model no cost.
    [[nodiscard]] virtual double recv_overhead_us() const noexcept
    {
        return 0.0;
    }

    /// Messages handed to send() but not yet delivered to a handler.
    [[nodiscard]] virtual std::uint64_t in_flight() const noexcept = 0;

    /// Block until in_flight() reaches zero.
    virtual void drain() = 0;

    [[nodiscard]] virtual transport_stats stats() const = 0;

    /// Stop delivery; further sends are dropped.  Idempotent.
    virtual void shutdown() = 0;

    /// Chaos API: mark a locality as crashed (`down = true`) or back up
    /// (`down = false`).  While down, every message to *or* from that
    /// locality is dropped (counted in messages_dropped), modeling a
    /// crashed process whose NIC went silent.  Returns false when the
    /// transport does not implement the chaos API (the default).
    virtual bool set_locality_down(std::uint32_t locality, bool down)
    {
        (void) locality;
        (void) down;
        return false;
    }

    /// Convenience wrappers over set_locality_down for chaos schedules.
    bool kill_locality(std::uint32_t locality)
    {
        return set_locality_down(locality, true);
    }

    bool restart_locality(std::uint32_t locality)
    {
        return set_locality_down(locality, false);
    }
};

}    // namespace coal::net
