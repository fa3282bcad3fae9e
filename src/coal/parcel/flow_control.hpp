#pragma once

/// \file flow_control.hpp
/// Tunables and error vocabulary of the end-to-end flow-control and
/// overload-protection layer (DESIGN.md "Flow control, bounded-memory
/// admission and overload shedding").
///
/// Three cooperating mechanisms keep every stage of the parcel pipeline
/// bounded when a peer is slow or dark:
///
///  - **Per-peer credit windows.**  Every frame (data, retransmit, or
///    standalone ack) piggybacks a window grant computed from the
///    grantor's local memory pressure; a sender whose unacknowledged
///    bytes would exceed the latest grant *defers* the send job on a
///    per-peer queue instead of handing it to the wire.  Acks shrink the
///    in-flight figure and re-release deferred jobs in order.  One frame
///    is always allowed in flight regardless of the window, so progress
///    never deadlocks on a grant that is smaller than a single frame.
///
///  - **Byte watermarks.**  The buffer pool reports ok/soft/critical
///    pressure against configured watermarks (see buffer_pool.hpp), and
///    each link reports the same three states against its in-flight +
///    deferred bytes.  Under `soft` the coalescer shrinks its batch
///    targets (early flushes); under `critical` admission control in
///    put_parcel sheds best-effort parcels (fire-and-forget, no
///    continuation) with a surfaced `shed_overload` error.  Control/ack
///    frames and continuation-bearing parcels are never shed.
///
///  - **Slow-peer detection and link failure.**  A link whose sender has
///    been credit-starved (deferred jobs, no grant movement) longer than
///    `starvation_trip_us` is degraded, like a dark link (see link_health
///    in peer_table.hpp).  A dark or starved link whose in-flight +
///    deferred bytes have hit `link_inflight_cap_bytes` is *down*: further
///    sends and its deferred jobs fail with a distinct `link_down` error
///    instead of being retained forever — the retransmission table stays
///    capped through a blackout of any length.
///
/// Flow control rides on the reliability layer (credits travel in the
/// ack fields), so enabling it forces `reliability_params::enabled`.

#include <cstdint>

namespace coal::parcel {

/// Why the parcel layer refused to deliver a parcel.  Surfaced through
/// parcelhandler::set_delivery_error_handler and the /net/flow counters.
enum class delivery_error : std::uint8_t
{
    /// Admission control shed a best-effort parcel under critical
    /// memory/link pressure.  Retrying later (or applying backpressure at
    /// the producer) is the caller's decision.
    shed_overload,

    /// The destination link is down — dark or credit-starved with its
    /// in-flight byte cap exhausted — and the parcel will not be queued
    /// behind an unbounded blackout.
    link_down,

    /// The membership layer declared the destination locality dead (or it
    /// rejoined under a new incarnation epoch before this parcel was
    /// acknowledged).  Delivery was *not confirmed*: the parcel may or
    /// may not have executed at the dead incarnation — callers must treat
    /// it as at-most-once (DESIGN.md "Failure model").
    peer_failed,
};

/// Number of delivery_error causes (per-cause counter array bound).
inline constexpr std::size_t delivery_error_causes = 3;

[[nodiscard]] constexpr char const* to_string(delivery_error e) noexcept
{
    switch (e)
    {
    case delivery_error::shed_overload:
        return "shed-overload";
    case delivery_error::link_down:
        return "link-down";
    case delivery_error::peer_failed:
        return "peer-failed";
    }
    return "?";
}

/// Tunables of the flow-control layer.  Disabled by default: the credit
/// field then stays 0 on the wire and every path behaves exactly as
/// before.
struct flow_params
{
    bool enabled = false;

    /// Window assumed for a peer that has not advertised yet.
    std::uint64_t initial_window_bytes = 256 * 1024;

    /// Window granted to peers while local pressure is ok; shrinks to
    /// /4 under soft and /16 under critical pressure.
    std::uint64_t window_bytes = 1u << 20;

    /// Grants never fall below this, so a pressured receiver throttles
    /// its peers without wedging them entirely (one frame can always
    /// move, which is what eventually relieves the pressure).
    std::uint64_t min_window_bytes = 64 * 1024;

    /// Per-link pressure thresholds over unacknowledged + deferred bytes:
    /// `soft` at link_soft_bytes; `critical` — and, on a dark or starved
    /// link, link_health::down — at link_inflight_cap_bytes.
    std::uint64_t link_soft_bytes = 1u << 20;
    std::uint64_t link_inflight_cap_bytes = 4u << 20;

    /// Continuous credit starvation (deferred jobs waiting, no grant
    /// movement) on one link longer than this degrades the link.
    std::int64_t starvation_trip_us = 100000;

    /// Buffer-pool watermarks the runtime applies to the global pool
    /// (bytes of live slab payload; see buffer_pool::set_watermarks).
    std::uint64_t pool_soft_bytes = 24u << 20;
    std::uint64_t pool_critical_bytes = 32u << 20;
    std::uint64_t pool_fallback_cap_bytes = 8u << 20;
};

}    // namespace coal::parcel
