#pragma once

/// \file peer_store.hpp
/// Sharded, lock-free-on-read storage for per-peer protocol state, plus
/// the due-time ring that replaces full-map background scans.
///
/// The parcelhandler used to keep every peer's reliability/flow/
/// membership state in one `unordered_map` behind one global spinlock:
/// every frame send, ack apply, credit release and heartbeat from every
/// worker serialized on that lock, and the background tick walked the
/// whole map — O(peers-ever-seen) per call.  This store replaces it
/// with three cooperating structures:
///
/// 1. **Shards.**  Peer ids hash onto `shard_count` cacheline-aligned
///    shards; the shard lock guards only the map *structure* (insert and
///    snapshot publication).  Entries are heap-allocated and NEVER erased
///    while the store lives — eviction demotes an entry in place — so a
///    raw `peer_entry*` obtained from any lookup stays valid without
///    hazard pointers or reference counting on the hot path.
///
/// 2. **Published snapshots.**  Each shard publishes an immutable sorted
///    (id, entry*) array through one atomic pointer.  Readers binary-
///    search it lock-free; a miss consults the shard's entry count and
///    only falls back to the locked map when entries were added after the
///    last publication.  Publication follows a doubling policy (republish
///    when the map reaches 2x the snapshot), so a shard of n peers
///    retires O(log n) snapshots totalling < 2n slots; retired snapshots
///    are parked until the store is destroyed, which is what makes the
///    reader side safe with zero synchronization.  The eviction clock
///    hand folds in stragglers once per revolution, so the steady state
///    converges to "every entry visible lock-free".
///
/// 3. **Per-peer state behind a per-peer lock.**  All protocol state
///    (`peer_state`) hangs off the entry behind the entry's own spinlock;
///    two peers never serialize on each other.  Lock order is strictly
///    shard -> entry -> ring bucket; no path acquires a shard lock while
///    holding an entry lock.
///
/// **Idle eviction.**  An entry whose peer holds no protocol state (no
/// unacked/held frames, no deferred jobs, no pending ack, breaker
/// closed) can be demoted to a compact `peer_tombstone` — the few fields
/// that exactly-once delivery and epoch fencing must remember: the next
/// send sequence, the cumulative receive sequence, the stream generation
/// and both incarnation epochs.  Rehydration on next contact restores a
/// full `peer_state` from the tombstone transparently; an idle peer
/// costs tens of bytes instead of a full protocol block.
///
/// **Due-time ring.**  Per-peer deadlines (delayed acks, retransmit
/// timeouts, heartbeats, dead-peer probes, deferred-send service) are
/// registered in a bucketed time ring keyed by absolute nanoseconds.
/// Each entry tracks its earliest registered wake-up in one atomic;
/// re-registration is a CAS-min, pops are idempotent (the service
/// callback recomputes real deadlines from peer state), and one drainer
/// at a time walks only the buckets whose time has come — amortized
/// O(active peers) instead of O(all peers) per background tick.

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
#include <unordered_map>
#include <vector>

namespace coal::parcel {

/// Tunables of the sharded peer store's idle-eviction sweeper.
struct peer_store_params
{
    /// Demote a state-free peer to a tombstone after this long without
    /// *data* traffic (heartbeats and probes do not count — otherwise
    /// two mutually-heartbeating idle peers would keep each other
    /// resident forever).  0 disables eviction.  Dead peers linger 8x
    /// as long so several rejoin-probe cycles run before the tombstone
    /// takes over (a restarted peer still rehydrates the link by
    /// contacting us with its higher epoch).
    std::int64_t evict_idle_us = 2'000'000;

    /// Entries the clock-hand sweeper examines per step.
    std::size_t evict_scan_budget = 64;

    /// Minimum interval between sweeper steps.
    std::int64_t evict_scan_interval_us = 500;
};

/// A batch of parcels bound for one destination as one wire message.
struct send_job
{
    std::uint32_t dst;
    std::vector<parcel> parcels;
    /// Estimated wire bytes; stamped when the job is deferred so the
    /// release path need not re-measure it.
    std::size_t bytes = 0;
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
    /// How many of `parcels` this locality forwarded as a node relay
    /// (parcel source != self).  Their acks confirm the relay ledger
    /// (/coal/hierarchy/relay-confirmed), not parcels_confirmed — the
    /// origin already counted them when this relay acked custody.
    std::uint32_t forwarded = 0;
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
    // Per-link circuit breaker.
    bool breaker_open = false;
    // Flow control (sender side).
    std::uint64_t unacked_bytes = 0;    ///< wire bytes in `unacked`
    std::uint64_t credit_window = 0;    ///< latest grant from the peer
    bool has_credit = false;    ///< false until the first advertisement
    std::deque<send_job> deferred;      ///< jobs awaiting window space
    std::uint64_t deferred_bytes = 0;
    /// When continuous credit starvation on this link began (0 = not
    /// starving).  Feeds the slow-peer breaker trip.
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
    /// Updated at hydration and by every fence.
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

/// What must survive eviction for exactly-once delivery and epoch
/// fencing to stay correct across a demote/rehydrate cycle.
struct peer_tombstone
{
    /// Next send sequence: without it a rehydrated stream would re-issue
    /// sequence numbers the peer's cumulative-ack dedup already covers,
    /// and every fresh frame would be suppressed as a duplicate.
    std::uint64_t next_seq = 1;
    /// Cumulative receive sequence: without it a retransmit arriving
    /// after rehydration would replay frames we already executed.
    std::uint64_t cum_received = 0;
    /// Voids send jobs that drew a sequence number before an eviction +
    /// fence interleaving (same re-check as a live fence).
    std::uint64_t stream_gen = 0;
    std::uint32_t epoch = 0;         ///< peer incarnation (ghost fencing)
    std::uint32_t link_epoch = 0;    ///< our incarnation bound to the stream
    peer_status status = peer_status::alive;
};

/// One peer's slot: a spinlock, the full state (null while evicted), the
/// tombstone, and the due-ring registration.  Entries are created once
/// and never destroyed while the store lives; `lock` guards every
/// non-atomic member.
class peer_entry : public std::enable_shared_from_this<peer_entry>
{
public:
    explicit peer_entry(std::uint32_t peer_id) noexcept
      : id(peer_id)
    {
    }

    peer_entry(peer_entry const&) = delete;
    peer_entry& operator=(peer_entry const&) = delete;

    std::uint32_t const id;
    mutable spinlock lock;
    std::unique_ptr<peer_state> live;    ///< null while evicted
    peer_tombstone tomb;    ///< authoritative while !live && tombstoned
    /// Distinguishes a real tombstone from a virgin/crash-reset slot.
    bool tombstoned = false;
    /// Last *data* contact (send registration, sequenced receive,
    /// hydration, fence).  Heartbeats and probes deliberately excluded.
    std::int64_t last_activity_ns = 0;
    /// Earliest due-ring registration (INT64_MAX = none).  CAS-min by
    /// schedulers, cleared by the drainer before servicing.
    std::atomic<std::int64_t> ring_due{
        std::numeric_limits<std::int64_t>::max()};
};

class peer_store
{
public:
    static constexpr std::size_t shard_count = 64;    // power of two

    /// One shard's published read index: (id, entry) sorted by id.
    /// Immutable after publication; entry pointers stay valid for the
    /// store's lifetime because entries are never erased.
    struct snapshot
    {
        std::vector<std::pair<std::uint32_t, peer_entry*>> entries;
    };

    peer_store() = default;
    peer_store(peer_store const&) = delete;
    peer_store& operator=(peer_store const&) = delete;

    /// Lock-free-on-read lookup: binary search of the published
    /// snapshot; a definitive miss (snapshot covers the whole shard)
    /// returns null without any lock, otherwise the shard map decides.
    [[nodiscard]] peer_entry* find(std::uint32_t id) const noexcept;

    /// Find-or-insert.  Hits resolve through the snapshot lock-free;
    /// only a genuine insert takes the shard lock (and republishes the
    /// snapshot under the doubling policy).
    [[nodiscard]] peer_entry& get_or_create(std::uint32_t id);

    /// Restore full state from the tombstone (or default-construct for a
    /// never-seen peer).  Caller holds e.lock.  `self_epoch` seeds
    /// link_epoch when the tombstone predates membership contact.
    peer_state& hydrate(peer_entry& e, std::uint32_t self_epoch);

    /// Demote a live entry to its tombstone.  Caller holds e.lock and
    /// has verified eligibility (evictable() plus idle policy) — this
    /// only performs the mechanical swap and bookkeeping.
    void demote(peer_entry& e);

    /// Crash reset: drop live state AND the tombstone (the incarnation's
    /// memory dies with it).  Caller holds e.lock and has already fenced
    /// the live state.
    void reset(peer_entry& e);

    /// Protocol-state emptiness — the safety half of eviction
    /// eligibility (the idle-time policy half is the caller's).
    [[nodiscard]] static bool evictable(peer_state const& st) noexcept
    {
        return st.unacked.empty() && st.held.empty() &&
            st.deferred.empty() && !st.ack_pending && !st.breaker_open &&
            st.unacked_bytes == 0 && st.deferred_bytes == 0;
    }

    /// Copy one shard's entries out under its lock (diagnostic and
    /// fence-all sweeps; never the hot path).
    void collect_shard(std::size_t shard_index,
        std::vector<std::shared_ptr<peer_entry>>& out) const;

    /// The shard's current published snapshot (may lag the map; the
    /// clock hand calls refresh_snapshot once per revolution to fold in
    /// stragglers).  Null until the first entry is inserted.
    [[nodiscard]] snapshot const* shard_snapshot(
        std::size_t shard_index) const noexcept;

    /// Republish the shard's snapshot if entries were added since the
    /// last publication.
    void refresh_snapshot(std::size_t shard_index);

    // Gauges (relaxed; the /net/peers counters read them).
    [[nodiscard]] std::size_t size() const noexcept
    {
        return size_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t active() const noexcept
    {
        return active_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t tombstoned() const noexcept
    {
        return tombstoned_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t evictions() const noexcept
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t rehydrations() const noexcept
    {
        return rehydrations_.load(std::memory_order_relaxed);
    }
    /// Entries in the fullest shard — a skew diagnostic.  O(shards).
    [[nodiscard]] std::size_t shard_max_occupancy() const noexcept;

private:
    struct alignas(cache_line_size) shard
    {
        mutable spinlock lock;
        std::unordered_map<std::uint32_t, std::shared_ptr<peer_entry>> map;
        std::atomic<snapshot const*> snap{nullptr};
        /// Entry count, readable without the lock (the definitive-miss
        /// fast path compares it against the snapshot's size).
        std::atomic<std::size_t> count{0};
        /// Map size at the last publication (guarded by lock).
        std::size_t published = 0;
        /// Every snapshot ever published, kept alive until destruction:
        /// readers hold raw pointers with no synchronization, and the
        /// doubling policy bounds the total at O(2n) slots.
        std::vector<std::unique_ptr<snapshot const>> retired;
    };

    [[nodiscard]] static std::size_t shard_of(std::uint32_t id) noexcept
    {
        // Golden-ratio mix: locality ids are typically dense small
        // integers, which would also distribute fine, but benches use
        // synthetic ranges.
        return (id * 0x9e3779b9u) >> 16 & (shard_count - 1);
    }

    void publish_locked(shard& s);

    std::array<shard, shard_count> shards_;
    std::atomic<std::size_t> size_{0};
    std::atomic<std::size_t> active_{0};
    std::atomic<std::size_t> tombstoned_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> rehydrations_{0};
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
    void schedule(std::shared_ptr<peer_entry> entry, std::int64_t due_ns);

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
        std::shared_ptr<peer_entry> entry;
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
            schedule(std::move(it.entry), next);
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
