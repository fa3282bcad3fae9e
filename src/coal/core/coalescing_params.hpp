#pragma once

/// \file coalescing_params.hpp
/// The two knobs of the paper's coalescing design (§II-B) plus the
/// memory-safety cap:
///
///  - `nparcels`: how many parcels to coalesce into one message — the
///    paper's primary control (unlike Active Pebbles/AM++/Charm++, which
///    control buffer *size*);
///  - `interval_us`: how long to wait for the queue to fill before its
///    flush deadline sends a partial batch;
///  - `max_buffer_bytes`: upper bound on queued payload to avoid memory
///    overflow on large-argument actions.
///
/// A `shared_params` holder lets `runtime::set_coalescing_params` (Fig. 9's
/// mid-run schedule changes) mutate parameters while traffic flows;
/// readers take a consistent snapshot.

#include <coal/common/cacheline.hpp>
#include <coal/common/spinlock.hpp>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace coal::coalescing {

struct coalescing_params
{
    /// Parcels per message.  <= 1 disables coalescing for the action.
    std::size_t nparcels = 128;

    /// Flush-deadline wait time in microseconds.  <= 0 disables coalescing
    /// (every parcel goes out immediately), matching the paper's
    /// "1 µs effectively disables" boundary behaviour.
    std::int64_t interval_us = 4000;

    /// Flush early once queued payload reaches this many bytes.
    std::size_t max_buffer_bytes = 1 << 20;

    /// Algorithm 1's tslp test: send directly when traffic is sparse
    /// (time since last parcel > interval and queue empty).  Exposed so
    /// the ablation bench can quantify the design choice; leave on.
    bool sparse_bypass = true;

    [[nodiscard]] bool coalescing_enabled() const noexcept
    {
        return nparcels > 1 && interval_us > 0;
    }

    friend bool operator==(
        coalescing_params const&, coalescing_params const&) = default;
};

/// Mutable parameter cell shared between a request handler and its
/// response handler, changed live by `runtime::set_coalescing_params`.
///
/// `get()` sits on every enqueue, so it is a seqlock over atomic fields:
/// readers take a consistent snapshot with two version loads and four
/// relaxed field loads — no shared write, no lock — and retry in the
/// (rare) window where a writer is mid-`set()`.  Writers serialize
/// on a spinlock and bump the version to odd around the field stores.
/// All field accesses are on std::atomic objects, so the retry loop is
/// data-race-free (ThreadSanitizer-clean), unlike a classic memcpy
/// seqlock.
class shared_params
{
public:
    explicit shared_params(coalescing_params initial)
    {
        store_fields(initial);
    }

    [[nodiscard]] coalescing_params get() const
    {
        for (;;)
        {
            std::uint64_t const v1 = version_.load(std::memory_order_acquire);
            if (v1 & 1)
            {
                cpu_relax();    // writer in progress
                continue;
            }
            coalescing_params p;
            p.nparcels = nparcels_.load(std::memory_order_relaxed);
            p.interval_us = interval_us_.load(std::memory_order_relaxed);
            p.max_buffer_bytes =
                max_buffer_bytes_.load(std::memory_order_relaxed);
            p.sparse_bypass = sparse_bypass_.load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (version_.load(std::memory_order_relaxed) == v1)
                return p;
        }
    }

    void set(coalescing_params p)
    {
        std::lock_guard lock(write_lock_);
        version_.fetch_add(1, std::memory_order_relaxed);    // odd: in flux
        // The release fence keeps the field stores below from becoming
        // visible before the odd version; the release increment after
        // them keeps them from becoming visible after the even version.
        std::atomic_thread_fence(std::memory_order_release);
        store_fields(p);
        version_.fetch_add(1, std::memory_order_release);    // even: stable
    }

private:
    void store_fields(coalescing_params const& p) noexcept
    {
        nparcels_.store(p.nparcels, std::memory_order_relaxed);
        interval_us_.store(p.interval_us, std::memory_order_relaxed);
        max_buffer_bytes_.store(p.max_buffer_bytes, std::memory_order_relaxed);
        sparse_bypass_.store(p.sparse_bypass, std::memory_order_relaxed);
    }

    spinlock write_lock_;
    std::atomic<std::uint64_t> version_{0};
    std::atomic<std::size_t> nparcels_{128};
    std::atomic<std::int64_t> interval_us_{4000};
    std::atomic<std::size_t> max_buffer_bytes_{1 << 20};
    std::atomic<bool> sparse_bypass_{true};
};

using shared_params_ptr = std::shared_ptr<shared_params>;

}    // namespace coal::coalescing
