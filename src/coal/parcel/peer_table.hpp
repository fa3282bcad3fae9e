#pragma once

/// \file peer_table.hpp
/// Per-peer protocol state in a dense table indexed by locality id, plus
/// the due-time ring that replaces full-table background scans.
///
/// Locality ids are dense integers in [0, N), fixed at startup, so each
/// parcelhandler owns one `peer_entry` slot per locality (N comes from
/// transport::num_localities()).  Slots never move or die while the
/// parcelhandler lives, so a `peer_entry&` from a lookup stays valid with
/// no lock, hazard pointer or reference count.  An id >= N is a caller
/// bug and trips COAL_ASSERT: ids off a real wire are range-checked by
/// the transport before delivery.
///
/// **Per-peer state behind a per-peer lock.**  All protocol state
/// (`peer_state`) hangs off the entry behind the entry's own spinlock;
/// two peers never serialize on each other.  The state is created on
/// first contact and dropped only by a crash reset, so a peer is either
/// absent (never contacted, or reset) or live, and memory tracks the
/// peers actually contacted.  Lock order is entry -> ring bucket.
///
/// **Due-time ring.**  Per-peer deadlines (delayed acks, retransmit
/// timeouts, heartbeats, dead-peer probes, deferred-send service) are
/// registered in a bucketed time ring keyed by absolute nanoseconds.
/// Each entry tracks its earliest registered wake-up in one atomic;
/// re-registration is a CAS-min, pops are idempotent (the service
/// callback recomputes real deadlines from peer state), and one drainer
/// at a time walks only the buckets whose time has come — amortized
/// O(active peers) instead of O(all peers) per background tick.

#include <coal/common/assert.hpp>
#include <coal/common/cacheline.hpp>
#include <coal/common/pressure.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/parcel/membership.hpp>
#include <coal/parcel/parcel.hpp>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <vector>

namespace coal::parcel {

/// A batch of parcels bound for one destination as one wire message.
struct send_job
{
    std::uint32_t dst;
    std::vector<parcel> parcels;
    /// Estimated wire bytes; stamped when the job is deferred so the
    /// release path need not re-measure it.
    std::size_t bytes = 0;
    /// Set when a window release moved the job from the peer's deferred
    /// queue back to the outbound queue: it was planned into the window
    /// then, so it goes out without a second window check.  Honoured only
    /// while the peer's stream_gen still equals `released_gen`.
    bool released = false;
    std::uint64_t released_gen = 0;
};

/// An outbound frame awaiting acknowledgement; the encoded frame is
/// retained *by reference* (its fragments are refcount-shared with
/// nothing else that mutates them), so registering it for retransmission
/// copies no payload bytes.  Each transmission takes a flattened
/// snapshot under the owning peer's lock — the only point where the
/// patchable ack/sack prefix is both stable and current.
struct unacked_frame
{
    serialization::wire_message frame;
    std::size_t bytes = 0;        ///< wire size, counted in unacked_bytes
    std::uint32_t parcels = 0;    ///< parcel count, for parcels_confirmed
    std::int64_t first_send_ns = 0;
    std::int64_t deadline_ns = 0;
    std::int64_t rto_ns = 0;
    unsigned attempts = 1;
    /// Sack evidence declared the first transmission lost: the frame was
    /// made due at once for one early resend, which keeps its RTO
    /// unbacked-off.  Set at most once — if that copy is lost too, the
    /// timer recovers it.
    bool fast_retransmitted = false;
};

/// A sequenced frame parked for reordering.  Held *undecoded* — the
/// parcels are only materialized (by the chunk tasks) once the frame is
/// released in order, so a reordering stall never pays decode for frames
/// it may hold for a long time.
struct held_frame
{
    serialization::shared_buffer payload;
    std::uint32_t count = 0;
};

/// How usable the link to one peer is, derived in one place
/// (parcelhandler::update_link_locked) from three causes.  Each cause is a
/// predicate over the peer's state, entered when it turns true and left
/// when it turns false: a dark link (the oldest unacked frame was sent
/// more than parcelhandler::dark_link_attempts times), credit starvation
/// (deferred jobs waited `flow_params::starvation_trip_us` with no window
/// movement) and suspicion (peer_status::suspected).
enum class link_health : std::uint8_t
{
    healthy,
    degraded,    ///< a cause holds: the coalescer bypasses batching
    /// Dark or starved with in-flight + deferred bytes at
    /// `flow_params::link_inflight_cap_bytes`: sends and deferred jobs
    /// fail with link_down.  Suspicion alone never takes a link down: a
    /// stalled host must not fail live traffic.
    down,
};

[[nodiscard]] constexpr char const* to_string(link_health h) noexcept
{
    switch (h)
    {
    case link_health::healthy:
        return "healthy";
    case link_health::degraded:
        return "degraded";
    case link_health::down:
        return "down";
    }
    return "?";
}

/// Per-(peer, direction) protocol state, guarded by the owning
/// peer_entry's lock.
struct peer_state
{
    // Sender side.
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, unacked_frame> unacked;
    double srtt_us = 0.0;
    /// Bumped by every fence.  A send job captures it with its sequence
    /// number; if a fence (death or rejoin) slides in while the frame is
    /// being encoded outside the lock, the stale generation is detected
    /// at registration time and the job fails as peer_failed instead of
    /// injecting a frame of the fenced stream — with its already-recycled
    /// sequence number and stale epoch stamp — into the fresh one.
    std::uint64_t stream_gen = 0;
    // Receiver side.
    std::uint64_t cum_received = 0;
    std::map<std::uint64_t, held_frame> held;    // out of order
    bool ack_pending = false;
    std::int64_t ack_deadline_ns = 0;
    link_health health = link_health::healthy;
    // Flow control (sender side).
    std::uint64_t unacked_bytes = 0;    ///< wire bytes in `unacked`
    std::uint64_t credit_window = 0;    ///< latest grant from the peer
    bool has_credit = false;    ///< false until the first advertisement
    std::deque<send_job> deferred;      ///< jobs awaiting window space
    std::uint64_t deferred_bytes = 0;
    /// Bytes of jobs released from `deferred` that wait in the outbound
    /// queue.  While they or `deferred` are non-empty, a newer job to this
    /// peer queues behind them: the link keeps per-stream FIFO order.
    std::uint64_t released_bytes = 0;
    /// When continuous credit starvation on this link began (0 = nothing
    /// deferred).  Feeds the starvation cause of `health`.
    std::int64_t starved_since_ns = 0;
    pressure_state link_pressure = pressure_state::ok;
    // Membership / failure detection.
    /// The peer's incarnation epoch as last observed (0 = never heard
    /// from it; senders then assume the initial epoch, 1).  For a dead
    /// peer this is the *fenced* epoch: frames stamped with it stay
    /// quarantined until the peer rejoins under a higher one.
    std::uint32_t epoch = 0;
    /// OUR incarnation epoch this link's send stream is bound to.
    /// Outgoing frames stamp this — not the live self epoch — so that
    /// (src_epoch, seq) consistency is an invariant local to this peer's
    /// lock: an epoch refutation can then fence links one at a time
    /// without a stop-the-world lock, and a send racing the sweep stamps
    /// the OLD epoch on the OLD stream (the receiver fences it as a
    /// ghost) instead of the new epoch on a stale sequence number.
    /// Set at first contact and by every fence.
    std::uint32_t link_epoch = 0;
    peer_status status = peer_status::alive;
    std::int64_t last_heard_ns = 0;    ///< last valid frame from the peer
    /// Our own stalled time (parcelhandler::stalled_ns_) as of
    /// last_heard_ns: suspicion skips what accrued since.
    std::int64_t stalled_at_heard_ns = 0;
    std::int64_t last_sent_ns = 0;     ///< last frame we emitted to it
    std::int64_t last_probe_ns = 0;    ///< last dead-peer rejoin probe
    /// EWMA of inter-arrival gaps, the phi-accrual denominator.
    double ewma_interarrival_us = 0.0;
};

/// One peer's slot: a spinlock, the protocol state (null until first
/// contact), and the due-ring registration.  `lock` guards `live`.
/// Cacheline-aligned so workers locking different peers never share a
/// line.
struct alignas(cache_line_size) peer_entry
{
    explicit peer_entry(std::uint32_t peer_id = 0) noexcept
      : id(peer_id)
    {
    }

    peer_entry(peer_entry const&) = delete;
    peer_entry& operator=(peer_entry const&) = delete;

    std::uint32_t id;    ///< set once, when the table is built
    mutable spinlock lock;
    std::unique_ptr<peer_state> live;    ///< null while absent
    /// Earliest due-ring registration (INT64_MAX = none).  CAS-min by
    /// schedulers, cleared by the drainer before servicing.
    std::atomic<std::int64_t> ring_due{
        std::numeric_limits<std::int64_t>::max()};
};

/// One entry per locality id in [0, size()).
class peer_table
{
public:
    explicit peer_table(std::uint32_t num_localities);

    peer_table(peer_table const&) = delete;
    peer_table& operator=(peer_table const&) = delete;

    [[nodiscard]] std::uint32_t size() const noexcept
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

    [[nodiscard]] peer_entry& operator[](std::uint32_t id) noexcept
    {
        COAL_ASSERT_MSG(id < entries_.size(), "peer id beyond locality count");
        return entries_[id];
    }

    [[nodiscard]] peer_entry const& operator[](
        std::uint32_t id) const noexcept
    {
        COAL_ASSERT_MSG(id < entries_.size(), "peer id beyond locality count");
        return entries_[id];
    }

    /// Whole-table sweeps (fence-all, crash reset, diagnostics).
    [[nodiscard]] auto begin() noexcept
    {
        return entries_.begin();
    }
    [[nodiscard]] auto end() noexcept
    {
        return entries_.end();
    }
    [[nodiscard]] auto begin() const noexcept
    {
        return entries_.begin();
    }
    [[nodiscard]] auto end() const noexcept
    {
        return entries_.end();
    }

    /// First contact: create the entry's state, its stream bound to
    /// `self_epoch`.  Caller holds e.lock and has seen `!e.live`.
    peer_state& create(peer_entry& e, std::uint32_t self_epoch);

    /// Crash reset: drop the state (the incarnation's memory dies with
    /// it).  Caller holds e.lock and has already fenced the state.
    void reset(peer_entry& e);

    /// Entries with live state (relaxed; /net/health/known-peers).
    [[nodiscard]] std::size_t active() const noexcept
    {
        return active_.load(std::memory_order_relaxed);
    }

private:
    std::vector<peer_entry> entries_;
    std::atomic<std::size_t> active_{0};
};

/// Bucketed absolute-time ring for per-peer deadlines.  ~134 ms horizon
/// (1024 buckets x 128 us); items due beyond the horizon simply survive
/// bucket revisits until their time comes.  Pops are idempotent — the
/// service callback recomputes real deadlines from peer state and the
/// drainer re-arms the returned next-due — so a duplicate registration
/// costs one cheap no-op service, never a missed deadline.
///
/// Only the drainer places items into buckets: schedule() parks the
/// registration on a staging list, and drain() either services it on
/// the spot (already due) or files it ahead of the cursor.  Bucketing
/// at the schedule() call site looks cheaper but is wrong — a deadline
/// in the past (service re-arms compute real deadlines, which expire
/// under load) lands *behind* the cursor and strands for a full ring
/// revolution, and while its stale registration holds `ring_due` low,
/// later CAS-min schedules push no item at all and strand with it.
class due_ring
{
public:
    static constexpr std::size_t bucket_count = 1024;    // power of two
    static constexpr std::int64_t tick_ns = 1 << 17;     // ~131 us

    due_ring() = default;
    due_ring(due_ring const&) = delete;
    due_ring& operator=(due_ring const&) = delete;

    /// Register a wake-up at absolute `due_ns`.  CAS-min against the
    /// entry's earliest registration: only a strictly earlier deadline
    /// inserts a new item, so mutation-site callers can re-arm
    /// conservatively without flooding the ring.
    void schedule(peer_entry& entry, std::int64_t due_ns);

    /// Drain every bucket between the last drain and `now`, servicing
    /// items whose time has come.  `service(peer_entry&)` returns the
    /// entry's next absolute deadline (INT64_MAX = none), which is
    /// re-armed automatically.  Single-drainer via try-lock: concurrent
    /// callers return false immediately and do other work.
    template <typename Service>
    bool drain(std::int64_t now, Service&& service)
    {
        if (!drain_lock_.try_lock())
            return false;
        bool any = false;
        std::vector<item> due;

        // File (or service) everything staged since the last drain.
        // Servicing due items here — not merely filing them — matters:
        // a deadline as short as a delayed ack must not wait an extra
        // drain period between being staged and being swept.
        auto const process_staged = [&]() -> bool {
            {
                std::lock_guard lock(staging_lock_);
                due.swap(staged_);
            }
            bool serviced = false;
            for (auto& it : due)
            {
                if (it.due_ns <= now)
                {
                    service_item(it, service);
                    serviced = true;
                    any = true;
                }
                else
                {
                    bucket& b = buckets_[static_cast<std::size_t>(
                                             it.due_ns / tick_ns) &
                        (bucket_count - 1)];
                    std::lock_guard lock(b.lock);
                    b.items.push_back(std::move(it));
                }
            }
            due.clear();
            return serviced;
        };
        process_staged();

        std::int64_t const end_tick = now / tick_ns;
        std::int64_t start_tick = cursor_ == 0 ? end_tick : cursor_ / tick_ns;
        if (end_tick - start_tick >=
            static_cast<std::int64_t>(bucket_count))
            start_tick = end_tick - bucket_count + 1;
        for (std::int64_t t = start_tick; t <= end_tick; ++t)
        {
            bucket& b = buckets_[static_cast<std::size_t>(t) &
                (bucket_count - 1)];
            {
                std::lock_guard lock(b.lock);
                for (std::size_t i = 0; i != b.items.size();)
                {
                    if (b.items[i].due_ns <= now)
                    {
                        due.push_back(std::move(b.items[i]));
                        b.items[i] = std::move(b.items.back());
                        b.items.pop_back();
                    }
                    else
                    {
                        ++i;
                    }
                }
            }
            for (auto& it : due)
            {
                service_item(it, service);
                any = true;
            }
            due.clear();
        }
        // Catch registrations staged during the sweep (concurrent
        // receive threads scheduling acks, service re-arms landing in
        // the past): anything already due is serviced in THIS drain.
        // Bounded — each pass only recurs if it serviced something, and
        // sane services re-arm into the future — but capped anyway.
        for (int pass = 0; pass != 4 && process_staged(); ++pass)
        {
        }
        cursor_ = now;
        drain_lock_.unlock();
        return any;
    }

    /// Items currently parked across all buckets (test/diagnostic).
    [[nodiscard]] std::size_t queued() const;

private:
    struct item
    {
        std::int64_t due_ns = 0;
        peer_entry* entry = nullptr;
    };

    struct alignas(cache_line_size) bucket
    {
        mutable spinlock lock;
        std::vector<item> items;
    };

    /// Clear the registration so later deadlines re-arm (a racing
    /// schedule() that already lowered it keeps its own earlier item,
    /// and servicing twice is harmless), run the callback, re-arm.
    template <typename Service>
    void service_item(item& it, Service& service)
    {
        std::int64_t expected = it.due_ns;
        it.entry->ring_due.compare_exchange_strong(expected,
            std::numeric_limits<std::int64_t>::max(),
            std::memory_order_acq_rel);
        std::int64_t const next = service(*it.entry);
        if (next != std::numeric_limits<std::int64_t>::max())
            schedule(*it.entry, next);
    }

    std::array<bucket, bucket_count> buckets_;
    spinlock drain_lock_;
    /// New registrations land here; the drainer alone moves them into
    /// buckets, so nothing is ever filed behind the cursor.
    mutable spinlock staging_lock_;
    std::vector<item> staged_;
    /// Last drained time; buckets between it and `now` are visited next
    /// (guarded by drain_lock_).
    std::int64_t cursor_ = 0;
};

}    // namespace coal::parcel
