#pragma once

/// \file message_handler.hpp
/// The seam between the parcelhandler and optional per-action message
/// handling plugins — where HPX mounts its coalescing plugin.
///
/// When an action has a message handler installed, outbound parcels for
/// that action are diverted to it instead of being sent one per message;
/// the handler decides when to hand batches back for transmission.

#include <coal/parcel/parcel.hpp>

#include <cstddef>
#include <cstdint>

namespace coal::parcel {

class message_handler
{
public:
    virtual ~message_handler() = default;

    /// Take ownership of an outbound parcel.
    virtual void enqueue(parcel&& p) = 0;

    /// Force-send everything queued (quiesce, shutdown, phase barriers).
    virtual void flush() = 0;

    /// Send everything queued because the locality went idle: no task is
    /// running that could add to a batch, so waiting for a size or timer
    /// trigger only adds latency.  Handlers that count flush reasons
    /// override this; the default is flush().
    virtual void flush_idle()
    {
        flush();
    }

    /// Send every queue whose flush deadline is at or before `now_ns`
    /// (run from the parcelhandler's progress() once its earliest deadline
    /// is due), lower `next_ns` to the earliest deadline still armed, and
    /// return how many queues were sent.  Handlers that arm deadlines
    /// report them through parcelhandler::arm_flush_deadline and override
    /// this.
    virtual std::size_t flush_due(
        std::int64_t /*now_ns*/, std::int64_t& /*next_ns*/)
    {
        return 0;
    }

    /// Parcels currently held back (all destinations).
    [[nodiscard]] virtual std::size_t queued_parcels() const = 0;
};

}    // namespace coal::parcel
