#pragma once

/// \file parcelhandler.hpp
/// Per-locality parcel subsystem: routing, transmission, reception.
///
/// Outbound path (put_parcel):
///   - destination == here: the action runs locally; a task is spawned
///     directly (no transport, no modeled network cost);
///   - a message handler (coalescing) is installed for the action: the
///     parcel is diverted to it; the handler later calls send_message();
///   - otherwise: a single-parcel message is queued for transmission.
///
/// Transmission and reception are *background work* (HPX's design): the
/// scheduler's workers pump `progress()` between tasks, which (a) frames
/// and sends queued outbound messages — paying the modeled per-message
/// sender cost inside background accounting — and (b) drains up to
/// `receive_drain_budget` inbox frames per call, paying the receiver cost
/// per frame.  This is what makes Eq. 3/4 of the paper measurable.
///
/// The receive pipeline is *batched*: the background worker never decodes
/// parcel arguments.  It peeks the O(1) frame prefix (duplicate frames
/// are suppressed before the modeled protocol spin is paid), scans the
/// frame's chunk boundaries touching only length fields, and bulk-spawns
/// one chunk task per K parcels through scheduler::post_n.  The chunk
/// tasks — running on the workers that execute the parcels — do the
/// actual deserialization against the shared frame slab, so a coalesced
/// frame costs the background path O(frame) instead of O(nparcels) task
/// spawns + decodes.  K is sized from the batch and the worker count
/// (~2 chunks per worker, floored at `receive_min_chunk_parcels`).
///
/// The response table maps continuation ids to callbacks that complete
/// local promises when a result parcel arrives.
///
/// Flow control (when `flow_params::enabled`): every outbound frame
/// carries a credit grant computed from local memory pressure, every
/// inbound frame updates the per-peer send window, and progress_send
/// *defers* jobs that would overrun the window onto a per-peer queue
/// instead of handing them to the wire.  Admission control in put_parcel
/// sheds best-effort parcels under critical pressure, and a link whose
/// breaker is open with its in-flight byte cap exhausted fails sends
/// with `delivery_error::link_down`.  See flow_control.hpp for the full
/// protocol description.

#include <coal/common/cacheline.hpp>
#include <coal/common/mpmc_queue.hpp>
#include <coal/common/pressure.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/common/unique_function.hpp>
#include <coal/net/topology.hpp>
#include <coal/net/transport.hpp>
#include <coal/parcel/action_registry.hpp>
#include <coal/parcel/flow_control.hpp>
#include <coal/parcel/membership.hpp>
#include <coal/parcel/message_handler.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/parcel/peer_store.hpp>
#include <coal/threading/scheduler.hpp>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace coal::parcel {

/// Monotonic counters the /parcels, /messages, /data and /net performance
/// counters read.
struct parcelhandler_counters
{
    std::atomic<std::uint64_t> parcels_sent{0};
    std::atomic<std::uint64_t> parcels_received{0};
    std::atomic<std::uint64_t> parcels_local{0};
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> parcels_executed{0};
    // Reliability layer (all zero while it is disabled):
    std::atomic<std::uint64_t> retransmits{0};
    /// Subset of retransmits sent early because later frames were
    /// selectively acked (fast / early retransmit), not on a timeout.
    std::atomic<std::uint64_t> fast_retransmits{0};
    std::atomic<std::uint64_t> duplicates_suppressed{0};
    std::atomic<std::uint64_t> acks_sent{0};    ///< standalone ack frames
    std::atomic<std::uint64_t> ack_latency_ns{0};
    std::atomic<std::uint64_t> acked_messages{0};
    std::atomic<std::uint64_t> circuit_breaker_trips{0};
    // Batched receive pipeline (/threads/receive-pipeline/*):
    std::atomic<std::uint64_t> receive_drains{0};    ///< drains with >=1 frame
    std::atomic<std::uint64_t> frames_drained{0};    ///< frames those consumed
    std::atomic<std::uint64_t> chunk_tasks{0};       ///< chunk tasks spawned
    std::atomic<std::uint64_t> chunk_parcels{0};     ///< parcels they carried
    /// Argument-decode time spent inside chunk tasks — work the pipeline
    /// moved off the background critical path onto executing workers.
    std::atomic<std::uint64_t> decode_offload_ns{0};
    /// Duplicate frames recognized from the O(1) prefix peek alone,
    /// before the modeled per-message receive overhead was paid.
    std::atomic<std::uint64_t> duplicate_overhead_avoided{0};
    // Flow control / overload protection (/net/flow/*; zero while off):
    std::atomic<std::uint64_t> parcels_shed{0};    ///< admission-control drops
    std::atomic<std::uint64_t> sends_deferred{0};  ///< jobs parked on credit
    std::atomic<std::uint64_t> sends_released{0};  ///< deferred jobs re-queued
    std::atomic<std::uint64_t> credit_updates{0};  ///< window grants applied
    std::atomic<std::uint64_t> link_down_failures{0};    ///< parcels failed
    std::atomic<std::uint64_t> pressure_transitions{0};
    std::atomic<std::uint64_t> starvation_trips{0};    ///< slow-peer breaker trips
    // Membership / failure detection (/net/health/*; zero while off):
    std::atomic<std::uint64_t> heartbeats_sent{0};    ///< standalone liveness frames
    std::atomic<std::uint64_t> peers_suspected{0};    ///< suspicion escalations
    std::atomic<std::uint64_t> peers_declared_dead{0};
    std::atomic<std::uint64_t> peer_rejoins{0};
    std::atomic<std::uint64_t> stale_epoch_frames{0};    ///< fenced-incarnation frames discarded
    /// False-positive deaths healed: this locality saw a frame addressed
    /// past its own incarnation (a dead-peer probe from an accuser) and
    /// refuted by adopting the higher epoch — a virtual restart.
    std::atomic<std::uint64_t> epoch_refutes{0};
    std::atomic<std::uint64_t> peer_failed_failures{0};    ///< parcels failed as peer_failed
    /// Parcels whose frame was acknowledged by the peer — the sender-side
    /// "confirmed delivered" half of the chaos-soak conservation law
    /// confirmed + failed + shed == offered.
    std::atomic<std::uint64_t> parcels_confirmed{0};
    // Hierarchical (two-level) aggregation (/coal/hierarchy/*; zero
    // while relay routing is off):
    /// Parcels this locality received as a node relay and re-routed to
    /// their final destination.
    std::atomic<std::uint64_t> parcels_relayed{0};
    /// Relayed parcels forwarded over intra-node links (the fan-out leg).
    std::atomic<std::uint64_t> parcels_fanned_out{0};
    /// Forwarded parcels acknowledged by their final destination — the
    /// completion half of the relay ledger.  These do NOT count into
    /// parcels_confirmed: the origin already counted the parcel when this
    /// relay acked custody of it.
    std::atomic<std::uint64_t> parcels_relay_confirmed{0};
    /// Forwarded parcels this relay could not deliver (destination died,
    /// link down, or the relay crashed holding them).  Custody was
    /// already confirmed to the origin, so these are the at-most-once
    /// window of the relay hop; they bypass the per-cause delivery-error
    /// counters and handler (origin-keyed accounting).
    std::atomic<std::uint64_t> parcels_relay_failed{0};
    /// Wire messages this locality sent across a node boundary / within
    /// its node (classified by the installed topology; both zero when no
    /// topology is installed).
    std::atomic<std::uint64_t> messages_inter_node{0};
    std::atomic<std::uint64_t> messages_intra_node{0};
};

/// Tunables of the ack/retransmit protocol.  Disabled by default: every
/// frame then goes out unsequenced (seq 0) exactly as before, so the
/// zero-loss fast path pays only the 32 unused header bytes.
struct reliability_params
{
    bool enabled = false;

    /// How long a received frame may wait for a piggyback opportunity
    /// before a standalone ack frame is emitted.
    std::int64_t ack_delay_us = 200;

    /// Retransmission timeout bounds and backoff.  The RTO is the
    /// fallback: a hole the sack bitmap proves lost (three later frames
    /// selectively acked, or every later frame for a short tail) is
    /// resent at once, so the timer only recovers tail losses and lost
    /// retransmits.  That is why the floor can stay conservative: until
    /// the smoothed RTT converges a burst of outstanding frames must not
    /// outrun the timer — an aggressive floor turns every burst into a
    /// spurious retransmit storm (and Karn's rule then keeps srtt from
    /// ever converging).  Latency-sensitive callers with small windows
    /// can lower it.
    std::int64_t min_rto_us = 50000;
    std::int64_t max_rto_us = 200000;
    double rto_backoff = 2.0;
    double rto_jitter = 0.25;    ///< uniform fraction added on each backoff

    /// RTO = rto_rtt_multiplier × smoothed RTT (clamped to the bounds);
    /// the EWMA gain follows RFC 6298's alpha.
    double rtt_gain = 0.125;
    double rto_rtt_multiplier = 4.0;

    /// Per-link circuit breaker: opens when the retransmit backlog or the
    /// oldest frame's attempt count crosses a threshold, closes once the
    /// backlog drains to the low-water mark.  An open breaker makes the
    /// coalescer flush immediately for that destination.
    /// A healthy burst parks hundreds of unacked frames for one RTT, so
    /// the backlog threshold must sit well above any sane window, and a
    /// frame must survive several backoff doublings before its attempt
    /// count signals a dark link rather than a slow ack.
    std::size_t breaker_trip_backlog = 4096;
    unsigned breaker_trip_attempts = 5;
    std::size_t breaker_close_backlog = 2;
};

/// Ordering ticket for send_message.  Producers that detach batches
/// outside their queue lock (the sharded coalescer) allocate consecutive
/// sequence numbers on a per-destination stream *while still holding the
/// lock*, then hand off lock-free; the parcelhandler's sequencer restores
/// ticket order before the batch reaches the outbound queue.  A
/// default-constructed ticket (stream 0) means "unordered, enqueue
/// directly".
struct send_ticket
{
    std::uint64_t stream = 0;    ///< 0 = no ordering requirement
    std::uint64_t seq = 0;       ///< consecutive from 0 within a stream
};

class parcelhandler
{
public:
    /// Callback surfacing parcels the flow-control layer refused to
    /// deliver (shed under overload, or failed on a down link).  Invoked
    /// outside internal locks, possibly concurrently from several
    /// threads; the parcel is moved to the handler for inspection.
    using delivery_error_handler =
        std::function<void(delivery_error, parcel&&)>;

    parcelhandler(std::uint32_t here, net::transport& transport,
        threading::scheduler& scheduler, reliability_params reliability = {},
        flow_params flow = {}, membership_params membership = {},
        peer_store_params store = {});
    ~parcelhandler();

    parcelhandler(parcelhandler const&) = delete;
    parcelhandler& operator=(parcelhandler const&) = delete;

    [[nodiscard]] std::uint32_t here() const noexcept
    {
        return here_;
    }

    /// Route an outbound parcel (thread-safe).
    void put_parcel(parcel&& p);

    /// Queue a batch of parcels bound for `dst` as ONE wire message.
    /// Called by message handlers (a coalesced flush) and internally for
    /// singleton sends.  Actual framing/transmission happens in
    /// background work.  A non-zero ticket routes the batch through the
    /// per-stream sequencer: batches are released to the outbound queue
    /// strictly in ticket order, so callers may invoke this outside the
    /// lock that assigned the ticket.
    void send_message(std::uint32_t dst, std::vector<parcel>&& parcels,
        send_ticket ticket = {});

    /// Allocate a fresh sequencer stream id (never 0).  One stream per
    /// ordered producer lane — the coalescer uses one per destination.
    [[nodiscard]] std::uint64_t allocate_send_stream() noexcept
    {
        return next_stream_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Install/remove the message handler for an action.  Installing for
    /// a request action id does NOT implicitly cover its response id —
    /// the coalescing registry decides that policy.
    void set_message_handler(
        action_id id, std::shared_ptr<message_handler> handler);

    [[nodiscard]] std::shared_ptr<message_handler> message_handler_for(
        action_id id) const;

    /// Flush all installed message handlers (phase end / quiesce).
    void flush_message_handlers();

    /// Install the component resolver handed to action invocations
    /// (wired to AGAS by the runtime; component actions need it).  Must be
    /// called before traffic starts: the shared invocation context is read
    /// without synchronization by every executing worker.
    void set_component_resolver(
        std::function<std::shared_ptr<void>(agas::gid, std::type_index)>
            resolver)
    {
        invoke_ctx_.find_component = std::move(resolver);
    }

    /// Install the locality-to-node topology and enable/disable relay
    /// routing (two-level aggregation).  Like set_component_resolver this
    /// must be called before traffic starts: the fields are read without
    /// synchronization on every send and receive afterwards.  With relay
    /// routing on, cross-node coalesced batches ship to a single relay
    /// locality on the destination node, whose receive path fans them out
    /// over intra-node links (forward_parcel).
    void set_topology(net::topology topo, bool relay_routing)
    {
        topo_ = topo;
        relay_routing_ = relay_routing && topo.enabled();
    }

    [[nodiscard]] net::topology const& topo() const noexcept
    {
        return topo_;
    }

    /// True when cross-node parcels take the two-level relay path.
    [[nodiscard]] bool relay_routing() const noexcept
    {
        return relay_routing_;
    }

    /// Re-route a parcel that arrived here as the node relay but is
    /// destined elsewhere: counts it, then dispatches it like put_parcel
    /// *without* re-stamping p.source (responses must still route to the
    /// origin).  Runs on the executing worker inside a chunk task.
    void forward_parcel(parcel&& p);

    /// Register a callback completing a local promise; returns the
    /// continuation id to embed in the outgoing parcel.
    continuation_id register_response_callback(
        unique_function<void(serialization::shared_buffer&&)> callback);

    /// Number of response callbacks still outstanding.
    [[nodiscard]] std::size_t pending_responses() const;

    /// Background work hook; registered with the locality's scheduler.
    /// Returns true when it made progress.
    bool progress();

    [[nodiscard]] parcelhandler_counters const& counters() const noexcept
    {
        return counters_;
    }

    /// Outbound messages accepted by send_message but not yet handed to
    /// the transport.  Includes frames mid-encode inside progress_send and
    /// batches parked in the sequencer waiting for an earlier ticket, so
    /// quiescence checks never observe zero while a message is between
    /// the queue and the wire.
    [[nodiscard]] std::size_t pending_sends() const
    {
        return outbound_.size() +
            sends_in_progress_.load(std::memory_order_acquire) +
            parked_sends_.load(std::memory_order_acquire) +
            deferred_sends_.load(std::memory_order_acquire);
    }

    /// Received wire messages not yet decoded/executed.  Includes frames
    /// mid-decode inside progress_receive (tasks are posted before the
    /// in-progress count drops, so the work is always visible somewhere).
    [[nodiscard]] std::size_t pending_receives() const
    {
        return inbox_.size() +
            receives_in_progress_.load(std::memory_order_acquire);
    }

    [[nodiscard]] reliability_params const& reliability() const noexcept
    {
        return reliability_;
    }

    [[nodiscard]] flow_params const& flow() const noexcept
    {
        return flow_;
    }

    /// Install the callback that surfaces shed / link-down parcels.  Like
    /// the component resolver, this must be installed before traffic
    /// starts — it is read without synchronization afterwards.
    void set_delivery_error_handler(delivery_error_handler handler)
    {
        on_delivery_error_ = std::move(handler);
    }

    /// Overload pressure toward `dst`: the max of buffer-pool memory
    /// pressure and the link's in-flight/deferred byte pressure.  The
    /// coalescer consults this to shrink its batch targets under `soft`
    /// pressure; put_parcel sheds best-effort parcels under `critical`.
    /// Steady state (no watermark crossed anywhere) answers from two
    /// relaxed atomic loads without touching any peer lock.
    [[nodiscard]] pressure_state flow_pressure(std::uint32_t dst) const;

    /// Process-level pressure: pool state combined with the worst link.
    /// The /net/flow/pressure counter reads this.
    [[nodiscard]] pressure_state current_pressure() const noexcept;

    /// Unfinished reliability state: unacked outbound frames, parcels held
    /// for reordering, and acks not yet emitted.  Zero when disabled.
    /// quiesce() waits on this so retransmits cannot outlive shutdown.
    [[nodiscard]] std::size_t pending_reliability() const;

    /// True while the circuit breaker for the link to `dst` is open or the
    /// membership layer suspects the peer.  The coalescing handler
    /// bypasses batching for degraded links.
    [[nodiscard]] bool link_degraded(std::uint32_t dst) const;

    [[nodiscard]] membership_params const& membership() const noexcept
    {
        return membership_;
    }

    /// This locality's incarnation epoch (starts at 1; restart_incarnation
    /// bumps it).
    [[nodiscard]] std::uint32_t epoch() const noexcept
    {
        return self_epoch_.load(std::memory_order_acquire);
    }

    /// True between simulate_crash() and restart_incarnation().
    [[nodiscard]] bool crashed() const noexcept
    {
        return crashed_.load(std::memory_order_acquire);
    }

    /// The failure detector's current verdict on `dst` (alive when the
    /// peer is unknown).
    [[nodiscard]] peer_status peer_liveness(std::uint32_t dst) const;

    /// Lock-free gate for liveness scans (relay selection): true while
    /// the failure detector trusts every peer — no suspected or dead
    /// marks anywhere, tombstoned or live.  Steady state is three relaxed
    /// gauge loads.
    [[nodiscard]] bool all_peers_live() const noexcept
    {
        return suspected_peers_.load(std::memory_order_acquire) == 0 &&
            dead_peers_.load(std::memory_order_acquire) == 0 &&
            tombstoned_dead_.load(std::memory_order_acquire) == 0;
    }

    /// Aggregate membership gauges the /net/health counters read.
    /// known_peers is the *live* footprint (hydrated entries); evicted
    /// tombstones are reported through peer_stats() instead, and a dead
    /// peer demoted to a tombstone leaves dead_peers too.
    struct health_snapshot
    {
        std::size_t known_peers = 0;
        std::size_t suspected_peers = 0;
        std::size_t dead_peers = 0;
    };
    [[nodiscard]] health_snapshot health() const;

    /// Sharded-store gauges the /net/peers counters read.
    struct peer_store_stats
    {
        std::size_t active = 0;       ///< hydrated entries
        std::size_t evicted = 0;      ///< tombstoned entries
        std::size_t shard_max_occupancy = 0;
        std::uint64_t evictions = 0;
        std::uint64_t rehydrations = 0;
    };
    [[nodiscard]] peer_store_stats peer_stats() const;

    [[nodiscard]] peer_store_params const& store_params() const noexcept
    {
        return store_params_;
    }

    /// Test/debug introspection: bytes and entries the reliability/flow
    /// layers retain for one peer.  A fenced (dead) peer must show zero
    /// everywhere — that is the "no per-peer state leak" invariant the
    /// chaos soak asserts.
    struct peer_debug
    {
        bool known = false;
        bool evicted = false;    ///< demoted to a tombstone (state zeroed)
        peer_status status = peer_status::alive;
        std::uint32_t epoch = 0;
        std::size_t unacked_frames = 0;
        std::size_t held_frames = 0;
        std::size_t deferred_jobs = 0;
        std::uint64_t unacked_bytes = 0;
        std::uint64_t deferred_bytes = 0;
        // Stream positions: a wedged link shows up as a gap between
        // cum_received and the lowest held/unacked seq.
        std::uint64_t next_seq = 0;
        std::uint64_t cum_received = 0;
        std::uint64_t lowest_unacked_seq = 0;    ///< 0 = none
        std::uint64_t lowest_held_seq = 0;       ///< 0 = none
    };
    [[nodiscard]] peer_debug debug_peer(std::uint32_t dst) const;

    /// Every hydrated peer's debug view, collected one shard at a time
    /// (shard lock to copy the entry list, then one entry lock each) —
    /// the quiesce non-convergence diagnostic iterates this instead of
    /// probing every locality pair, so a 5 s dump no longer stalls all
    /// senders behind one global lock.
    [[nodiscard]] std::vector<std::pair<std::uint32_t, peer_debug>>
    debug_active_peers() const;

    /// Chaos hook: model a hard crash of this locality.  All queued,
    /// in-flight and retransmit-held outbound parcels are surfaced through
    /// the delivery-error handler as `peer_failed` (so sender-side
    /// accounting still balances), every per-peer state table is dropped,
    /// pending responses are abandoned, and progress() becomes a no-op
    /// until restart_incarnation().  Call transport::kill_locality first
    /// so no frame from the dead incarnation escapes mid-crash.
    void simulate_crash();

    /// Chaos hook: come back from simulate_crash() under a fresh
    /// incarnation epoch (self epoch + 1).  All protocol state starts
    /// over; peers discover the new epoch from the first frame or probe
    /// reply they see and fence everything addressed to the old one.
    void restart_incarnation();

    /// Route parcels that will never be delivered through the unified
    /// delivery-failure path: per-cause counter, trace event, then the
    /// delivery-error handler for each parcel.  Public so the chaos
    /// machinery (runtime::kill_locality) can account for parcels a crash
    /// destroyed outside the parcelhandler, e.g. in coalescing queues.
    void fail_parcels(delivery_error err, std::vector<parcel>&& parcels);

    /// Stop accepting traffic (queues close; progress drains nothing new).
    void stop();

private:
    // send_job, unacked_frame, held_frame and peer_state moved to
    // peer_store.hpp with the sharded store.

    /// Reorder state for one ordered producer lane.  Lives in a sharded
    /// map: distinct streams (≈ distinct coalescer destinations) contend
    /// only when they hash to the same shard.
    struct stream_state
    {
        std::uint64_t next_seq = 0;                  ///< next ticket to release
        std::map<std::uint64_t, send_job> parked;    ///< out-of-order arrivals
    };

    struct alignas(cache_line_size) sequencer_shard
    {
        spinlock lock;
        std::unordered_map<std::uint64_t, stream_state> streams;
    };

    static constexpr std::size_t sequencer_shard_count = 16;    // power of two

    /// Max inbox frames one progress_receive call consumes.  Bounds the
    /// latency a single background poll can add to the task it preempted
    /// while still amortizing the poll over many frames.
    static constexpr std::size_t receive_drain_budget = 32;

    /// Floor on parcels per chunk task: below this, per-task overhead
    /// would eat what parallel decode gains.
    static constexpr std::size_t receive_min_chunk_parcels = 8;

    /// Selectively acked frames above a hole that declare it lost (RFC
    /// 6675's DupThresh): a pairwise reorder never reaches it.
    static constexpr std::uint64_t fast_retransmit_dupthresh = 3;

    struct inbound_message
    {
        std::uint32_t src;
        serialization::shared_buffer payload;
    };

    void deliver_local(parcel&& p);
    void execute_parcel(parcel&& p);
    bool progress_send();
    bool progress_receive();
    void receive_one(inbound_message&& msg);
    void spawn_parcel_tasks(
        serialization::shared_buffer&& buffer, std::uint32_t count);
    void execute_chunk(serialization::shared_buffer buffer,
        std::size_t offset, std::size_t count);
    [[nodiscard]] std::size_t chunk_size_for(std::size_t count) const noexcept;
    void handle_acks(std::uint32_t src, frame_header const& hdr);
    void schedule_ack_locked(
        peer_entry& e, peer_state& peer, std::int64_t now);
    [[nodiscard]] std::uint64_t sack_bits_locked(peer_state const& peer) const;
    [[nodiscard]] std::int64_t initial_rto_ns_locked(
        peer_state const& peer) const;
    void maybe_trip_breaker_locked(std::uint32_t dst, peer_state& peer);
    void complete_promise(
        continuation_id id, serialization::shared_buffer&& payload);

    // -- sharded peer store -----------------------------------------------
    /// Rehydrate an evicted entry (gauge-aware wrapper around
    /// peer_store::hydrate).  Caller holds e.lock.
    peer_state& hydrate_locked(peer_entry& e);
    /// Demote the entry to its tombstone when the idle policy and the
    /// protocol-state safety check both allow it; clears suspicion and
    /// moves a dead verdict to the tombstoned_dead_ gauge.  Caller holds
    /// e.lock.  Returns true when the entry was evicted.
    bool try_evict_locked(peer_entry& e, peer_state& peer, std::int64_t now);
    /// Clock-hand eviction sweep: examine up to evict_scan_budget entries
    /// via the shard snapshots (try-lock; concurrent callers skip).
    bool evict_hand_step(std::int64_t now);
    /// Per-peer deadline service driven by the due-time ring: due acks,
    /// windowed retransmits (RTO expiries and the holes handle_acks made
    /// due on sack evidence), starvation/dark-link handling, deferred
    /// release, phi-accrual liveness, heartbeats and dead-peer probes —
    /// everything the old full-map background walks did, now amortized
    /// O(active).  Returns the peer's next absolute deadline.
    std::int64_t service_peer(peer_entry& e);

    // -- flow control -----------------------------------------------------
    /// The credit this locality grants its peers right now, scaled by
    /// buffer-pool pressure and biased by one for the wire (never 0 when
    /// flow control is on — a grant of 0 would wedge the peer).
    [[nodiscard]] std::uint64_t advertised_credit_wire() const noexcept;
    /// Would sending `bytes` more overrun the peer's window?  One frame
    /// is always allowed in flight (unacked_bytes == 0), so a grant
    /// smaller than a single frame cannot deadlock the link.
    [[nodiscard]] bool should_defer_locked(
        peer_state const& peer, std::size_t bytes) const noexcept;
    /// Is the link to this peer past its in-flight cap with the breaker
    /// open — i.e. in the link_down failure mode?
    [[nodiscard]] bool link_down_locked(peer_state const& peer) const noexcept;
    /// Move deferred jobs that now fit the window back to outbound_.
    /// Appends them to `released`; the caller pushes after unlocking.
    void release_deferred_locked(
        peer_state& peer, std::vector<send_job>& released, std::int64_t now);
    /// Recompute this link's pressure state from its in-flight + deferred
    /// bytes; maintains the lock-free pressured_links_ fast path.
    void update_link_pressure_locked(peer_state& peer);
    /// Fail a job's parcels through the delivery-error handler (called
    /// without peers_lock_ held).
    void fail_job(delivery_error err, send_job&& job);
    /// Emit trace/counter updates when the process-level pressure state
    /// changed since the last check.  Called from progress().
    void note_pressure_transition();

    // -- membership / failure detection ------------------------------------
    /// Per-peer state torn off under peers_lock_ by a fence (peer died or
    /// rejoined under a new epoch); failed outside the lock.
    struct fenced_state
    {
        std::uint32_t dst = 0;
        std::vector<unacked_frame> unacked;
        std::vector<send_job> deferred;
    };
    /// Strip every byte of sender+receiver protocol state for a peer:
    /// unacked and deferred parcels move to `out` (to be failed as
    /// peer_failed), held/ack/credit/seq/breaker state is reset, the
    /// stream re-binds to the current self epoch (link_epoch), and the
    /// gauges (open_breakers_, deferred_sends_, pressured_links_ and the
    /// reliability totals) are adjusted.  The caller decides what the
    /// fence means (death vs rejoin) and fixes status/epoch afterwards.
    /// Caller holds e.lock.
    void fence_peer_locked(
        peer_entry& e, peer_state& peer, fenced_state& out);
    /// Fail everything a fence collected (decodes retained frames back to
    /// parcels).  Returns the number of parcels failed.
    std::size_t fail_fenced(fenced_state&& fenced);
    /// Epoch/liveness gate for one received frame.  Returns false when the
    /// frame must be discarded (ghost from a fenced incarnation, or
    /// addressed to a previous incarnation of this locality).  Updates
    /// last-heard/EWMA liveness state and handles rejoin fencing.
    [[nodiscard]] bool membership_admit(
        std::uint32_t src, frame_info const& info);
    /// Adopt `new_epoch` (a virtual restart refuting a false-positive
    /// death) and fence every link, one peer lock at a time.  The
    /// per-peer link_epoch makes the sweep safe without a global lock:
    /// sends racing it stamp the old epoch on the old stream, which the
    /// receiver fences as a ghost — never the new epoch on a stale
    /// sequence number.  Called WITHOUT any peer lock held.
    void refute_self(std::uint32_t new_epoch, std::uint32_t accuser);
    /// True when `dst` is currently marked dead (cheap gauge gate first,
    /// then the entry lock; a dead tombstone counts).
    [[nodiscard]] bool peer_dead(std::uint32_t dst) const;
    /// Stamp the membership epochs on an outgoing frame header for `dst`.
    void stamp_epochs_locked(peer_state const& peer, frame_header& hdr) const;

    std::uint32_t here_;
    net::transport& transport_;
    threading::scheduler& scheduler_;

    /// Locality-to-node map + relay-routing switch (set_topology; both
    /// immutable once traffic starts).
    net::topology topo_{};
    bool relay_routing_ = false;

    mpmc_queue<send_job> outbound_;
    mpmc_queue<inbound_message> inbox_;

    std::array<sequencer_shard, sequencer_shard_count> sequencer_shards_;
    std::atomic<std::uint64_t> next_stream_{1};
    std::atomic<std::size_t> parked_sends_{0};

    mutable spinlock handlers_lock_;
    std::unordered_map<action_id, std::shared_ptr<message_handler>> handlers_;

    mutable spinlock responses_lock_;
    std::unordered_map<continuation_id,
        unique_function<void(serialization::shared_buffer&&)>>
        responses_;
    std::atomic<std::uint64_t> next_continuation_{1};

    /// Shared invocation context, built once in the constructor.  Its
    /// std::functions are immutable after startup and invoked concurrently
    /// by every worker — execute_parcel no longer assembles three
    /// type-erased closures per parcel.
    invocation_context invoke_ctx_;

    reliability_params reliability_;
    flow_params flow_;
    membership_params membership_;
    peer_store_params store_params_;
    /// The sharded peer store (declared before the ring: the ring's
    /// buckets hold entry references and must be destroyed first).
    peer_store store_;
    due_ring ring_;
    /// Clock-hand eviction cursor (hand_lock_ guards all three; steps
    /// try-lock so concurrent progress() callers never wait here).
    spinlock hand_lock_;
    std::size_t hand_shard_ = 0;
    std::size_t hand_pos_ = 0;
    std::int64_t hand_last_step_ns_ = 0;
    /// Links whose circuit breaker is currently open; lets
    /// link_degraded() answer "none" without any peer lock.  Mutated
    /// only under the owning peer's lock.
    std::atomic<std::size_t> open_breakers_{0};
    /// Links whose link_pressure is above ok / at critical — the
    /// lock-free fast path of flow_pressure()/current_pressure().
    /// Mutated only under the owning peer's lock.
    std::atomic<std::size_t> pressured_links_{0};
    std::atomic<std::size_t> links_critical_{0};
    /// Last process-level pressure reported by note_pressure_transition().
    std::atomic<std::uint8_t> last_pressure_{0};
    /// Deferred send jobs across all peers (gauge for pending_sends()).
    std::atomic<std::size_t> deferred_sends_{0};
    /// Reliability totals maintained at every mutation point so
    /// pending_reliability() is three relaxed loads instead of a
    /// full-store walk under lock.
    std::atomic<std::size_t> unacked_total_{0};
    std::atomic<std::size_t> held_total_{0};
    std::atomic<std::size_t> acks_pending_{0};
    /// Peers currently suspected / declared dead (gauges; mutated only
    /// under the owning peer's lock).  Both also serve as lock-free
    /// fast-path gates: link_degraded() and put_parcel's dead-peer check
    /// skip the lock while they read zero.  A dead peer demoted to a
    /// tombstone moves from dead_peers_ to tombstoned_dead_ — the
    /// /net/health gauge reports only the live footprint, but the
    /// put_parcel fail-fast gate checks the sum.
    std::atomic<std::size_t> suspected_peers_{0};
    std::atomic<std::size_t> dead_peers_{0};
    std::atomic<std::size_t> tombstoned_dead_{0};
    /// This locality's incarnation epoch; starts at 1, bumped by
    /// restart_incarnation().
    std::atomic<std::uint32_t> self_epoch_{1};
    std::atomic<bool> crashed_{false};
    delivery_error_handler on_delivery_error_;

    parcelhandler_counters counters_;
    // Messages popped from outbound_/inbox_ but still being processed.
    // Incremented before the pop so pending_sends()/pending_receives()
    // never transiently read zero while a message is in flight.
    std::atomic<std::size_t> sends_in_progress_{0};
    std::atomic<std::size_t> receives_in_progress_{0};
    std::atomic<bool> stopped_{false};
};

}    // namespace coal::parcel
