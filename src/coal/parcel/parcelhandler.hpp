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
/// Work that arrives from outside the workers — a transport delivery, a
/// send from any non-worker thread — wakes an idle worker
/// (scheduler::wake) instead of waiting for its next poll.  When the
/// locality goes idle, the scheduler runs idle_flush(), which flushes the
/// message handlers: with no task running, nothing local can add to a
/// batch before its deadline.  Coalescing flush deadlines are serviced
/// here too: handlers lower one earliest-deadline atomic
/// (arm_flush_deadline), progress() compares it with the clock, and the
/// worker that claims a due deadline runs message_handler::flush_due.
/// The parcelhandler is its scheduler's progress_hook; an idle worker
/// sleeps until woken, or at most until the earliest flush deadline or
/// one due_ring tick when the reliability layer has deadlines to service.
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
/// sheds best-effort parcels under critical pressure, and a link that is
/// `link_health::down` (dark or credit-starved, with its in-flight byte
/// cap exhausted) fails sends with `delivery_error::link_down`.  See
/// flow_control.hpp for the full protocol description.

#include <coal/common/mpmc_queue.hpp>
#include <coal/common/pressure.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/common/unique_function.hpp>
#include <coal/net/transport.hpp>
#include <coal/parcel/action_registry.hpp>
#include <coal/parcel/flow_control.hpp>
#include <coal/parcel/membership.hpp>
#include <coal/parcel/message_handler.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/parcel/peer_table.hpp>
#include <coal/threading/scheduler.hpp>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
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
    /// Links that became degraded with a dark link or credit starvation
    /// among the causes (suspicion alone counts as peers_suspected).
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
    std::atomic<std::uint64_t> starvation_trips{0};    ///< degraded by starvation
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
    // Coalescing flush deadlines (/timers/*):
    /// Queues sent because their flush deadline passed (flush_due).
    std::atomic<std::uint64_t> deadline_flushes{0};
    /// Sum and maximum of how late those flushes ran past their deadline.
    std::atomic<std::uint64_t> deadline_lateness_ns{0};
    std::atomic<std::uint64_t> deadline_lateness_max_ns{0};
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

    /// Retransmission timeout bounds.  The RTO is the fallback: a hole
    /// the sack bitmap proves lost (three later frames selectively
    /// acked, or every later frame for a short tail) is resent at once,
    /// so the timer only recovers tail losses and lost retransmits.  That
    /// is why the floor can stay conservative: until the smoothed RTT
    /// converges a burst of outstanding frames must not outrun the timer
    /// — an aggressive floor turns every burst into a spurious retransmit
    /// storm (and Karn's rule then keeps srtt from ever converging).
    /// Latency-sensitive callers with small windows can lower it.
    std::int64_t min_rto_us = 50000;
    std::int64_t max_rto_us = 200000;
};

class parcelhandler final : public threading::progress_hook
{
public:
    /// Callback surfacing parcels the flow-control layer refused to
    /// deliver (shed under overload, or failed on a down link).  Invoked
    /// outside internal locks, possibly concurrently from several
    /// threads; the parcel is moved to the handler for inspection.
    using delivery_error_handler =
        std::function<void(delivery_error, parcel&&)>;

    /// The peer table holds one slot per transport.num_localities().
    parcelhandler(std::uint32_t here, net::transport& transport,
        threading::scheduler& scheduler, reliability_params reliability = {},
        flow_params flow = {}, membership_params membership = {});
    ~parcelhandler();

    parcelhandler(parcelhandler const&) = delete;
    parcelhandler& operator=(parcelhandler const&) = delete;

    [[nodiscard]] std::uint32_t here() const noexcept
    {
        return here_;
    }

    /// Route an outbound parcel (thread-safe).
    void put_parcel(parcel&& p);

    /// Queue a batch of parcels bound for `dst` as ONE wire message, and
    /// wake a worker if the caller is not one.  Actual
    /// framing/transmission happens in background work.  Batches enter
    /// the outbound queue in call order.
    void send_message(std::uint32_t dst, std::vector<parcel>&& parcels)
    {
        push_message(dst, std::move(parcels));
        wake_sender();
    }

    /// send_message's two halves, for a caller that pushes under the lock
    /// that orders its batches (the coalescer's shard lock, which makes
    /// per-destination FIFO): it calls wake_sender() once the lock is
    /// released, because a wake-up may be a futex call that would keep
    /// the lock's other waiters spinning.
    void push_message(std::uint32_t dst, std::vector<parcel>&& parcels);
    void wake_sender()
    {
        // Only workers pump progress(): a batch handed over from any
        // other thread (a put or a handler flush from outside) wakes one.
        if (!scheduler_.on_worker_thread())
            scheduler_.wake();
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

    /// Lower the earliest coalescing flush deadline to `deadline_ns` (a
    /// now_ns() time) if it is earlier.  A handler calls this when a
    /// queue's first parcel arms its deadline; progress() then runs the
    /// handlers' flush_due() once it has passed.  Lowering it wakes a
    /// worker, whose idle sleep may have been bounded by a later one.
    void arm_flush_deadline(std::int64_t deadline_ns);

    /// Account one deadline flush that ran `lateness_ns` past its
    /// deadline (the /timers/* counters).
    void note_deadline_flush(std::int64_t lateness_ns) noexcept;

    /// Run by the locality's scheduler when none of its workers is
    /// running a task and a parcel was diverted to a message handler since
    /// the last run.  Flushes every installed handler
    /// (message_handler::flush_idle); returns true when it flushed.
    bool idle_flush() override;

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

    /// Register a callback completing a local promise; returns the
    /// continuation id to embed in the outgoing parcel.
    continuation_id register_response_callback(
        unique_function<void(serialization::shared_buffer&&)> callback);

    /// Number of response callbacks still outstanding.
    [[nodiscard]] std::size_t pending_responses() const;

    /// Background work, run by the locality's scheduler between tasks.
    /// Returns true when it made progress.
    bool progress() override;

    /// Deliveries, posts and off-worker sends all wake a worker, so with
    /// reliability off and no flush deadline armed an idle worker sleeps
    /// until woken.  An armed flush deadline bounds the sleep, so an idle
    /// sibling of a busy worker flushes on time.  With reliability on,
    /// RTO, delayed-ack, heartbeat and defer deadlines are filed in the
    /// due ring at tick granularity, so one tick bounds it too.
    [[nodiscard]] std::int64_t max_idle_sleep_ns() const override;

    [[nodiscard]] parcelhandler_counters const& counters() const noexcept
    {
        return counters_;
    }

    /// Outbound messages accepted by send_message but not yet handed to
    /// the transport.  Includes frames mid-encode inside progress_send and
    /// jobs deferred by flow control, so quiescence checks never observe
    /// zero while a message is between the queue and the wire.
    [[nodiscard]] std::size_t pending_sends() const
    {
        return outbound_.size() +
            sends_in_progress_.load(std::memory_order_acquire) +
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

    /// True while the link to `dst` is not `link_health::healthy`: dark,
    /// credit-starved or suspected.  The coalescing handler bypasses
    /// batching for degraded links.  One atomic load while every link is
    /// healthy.
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

    /// Aggregate membership gauges the /net/health counters read.
    /// known_peers is the footprint: peers with protocol state;
    /// suspected_peers is counted by a walk over the peer table.
    struct health_snapshot
    {
        std::size_t known_peers = 0;
        std::size_t suspected_peers = 0;
        std::size_t dead_peers = 0;
    };
    [[nodiscard]] health_snapshot health() const;

    /// Test/debug introspection: bytes and entries the reliability/flow
    /// layers retain for one peer.  A fenced (dead) peer must show zero
    /// everywhere — that is the "no per-peer state leak" invariant the
    /// chaos soak asserts.
    struct peer_debug
    {
        bool known = false;
        peer_status status = peer_status::alive;
        link_health health = link_health::healthy;
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

    /// Every known peer's debug view, one entry lock at a time — the
    /// quiesce non-convergence diagnostic iterates this, so a 5 s dump
    /// never stalls all senders behind one global lock.
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

    /// Stop accepting traffic: queues close, progress drains nothing new,
    /// and whatever is still queued is released (a frame that arrived
    /// after the last quiesce would otherwise pin its pool slab).
    void stop();

private:
    // send_job, unacked_frame, held_frame and peer_state live in
    // peer_table.hpp.

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

    /// RTO = rto_rtt_multiplier × smoothed RTT, clamped to the
    /// reliability_params bounds; the RTT EWMA gain is RFC 6298's alpha.
    static constexpr double rto_rtt_multiplier = 4.0;
    static constexpr double rtt_gain = 0.125;
    /// Each timeout retransmit multiplies the RTO by rto_backoff plus a
    /// deterministic uniform jitter of up to rto_jitter of the result.
    static constexpr double rto_backoff = 2.0;
    static constexpr double rto_jitter = 0.25;
    /// A link is dark once its oldest unacked frame has been sent more
    /// than this many times: it survived several backoff doublings, so
    /// the ack is missing rather than slow.
    static constexpr unsigned dark_link_attempts = 5;
    /// Re-arm cadence of the due-ring service for a link with deferred
    /// jobs and no ack traffic driving it (release attempts,
    /// starvation checks).
    static constexpr std::int64_t defer_service_us = 5000;
    /// EWMA gain for the heartbeat interarrival estimate.
    static constexpr double interarrival_gain = 0.125;

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
    /// Fill the ack, sack and credit grant a frame to `peer` piggybacks,
    /// clear its pending delayed ack (this frame carries it) and restart
    /// its heartbeat clock.  Epochs are stamped by the caller: a
    /// retransmit keeps the ones it was encoded with (parcel.hpp).
    void piggyback_locked(peer_state& peer, frame_header& hdr, std::int64_t now);
    [[nodiscard]] std::int64_t initial_rto_ns_locked(
        peer_state const& peer) const;
    void complete_promise(
        continuation_id id, serialization::shared_buffer&& payload);

    // -- peer table ---------------------------------------------------------
    /// The entry's protocol state, created on first contact (which also
    /// arms its first due-ring service).  Caller holds e.lock.
    peer_state& live_locked(peer_entry& e);
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
    /// Must a fresh job of `bytes` wait?  It must while older jobs to the
    /// peer are deferred or released-but-queued (per-stream FIFO), or
    /// when it would overrun the window.  One frame is always allowed in
    /// flight (unacked_bytes == 0), so a grant smaller than a single frame
    /// cannot deadlock the link.
    [[nodiscard]] bool should_defer_locked(
        peer_state const& peer, std::size_t bytes) const noexcept;
    /// Move deferred jobs that now fit the window back to outbound_.
    /// Appends them to `released`; the caller pushes after unlocking,
    /// through requeue_released().
    void release_deferred_locked(
        peer_state& peer, std::vector<send_job>& released, std::int64_t now);
    /// Push released jobs to outbound_ (peer lock not held).
    void requeue_released(std::vector<send_job>& released);
    /// The one place a link's state is derived, run after every change
    /// to its in-flight or deferred bytes, its oldest frame's attempts
    /// or the peer's suspicion: recomputes link_pressure (flow control)
    /// and `health` from its causes (see link_health), keeps the
    /// lock-free gauges (pressured_links_, links_critical_,
    /// degraded_links_) in step, counts each healthy -> degraded
    /// transition by cause, and logs it and each entry into down once
    /// (the parcels a down link fails are counted, not logged).
    void update_link_locked(
        std::uint32_t dst, peer_state& peer, std::int64_t now);
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
    /// peer_failed), held/ack/credit/seq state is reset, the stream
    /// re-binds to the current self epoch (link_epoch), and the link
    /// state and the reliability totals are updated.  The caller decides
    /// what the fence means (death vs rejoin) and fixes status/epoch
    /// afterwards.  Caller holds e.lock.
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
    /// True when `dst` is currently marked dead (callers gate on the
    /// dead_peers_ gauge first; this takes the entry lock).
    [[nodiscard]] bool peer_dead(std::uint32_t dst) const;
    /// Stamp the membership epochs on an outgoing frame header for `dst`.
    void stamp_epochs_locked(peer_state const& peer, frame_header& hdr) const;
    /// Snapshot of the installed message handlers, so they are flushed
    /// outside handlers_lock_.
    [[nodiscard]] std::vector<std::shared_ptr<message_handler>>
    installed_handlers() const;
    /// Hand a parcel to its action's message handler and arm the
    /// scheduler's idle_flush(), which flushes it once the locality idles.
    void divert(message_handler& handler, parcel&& p);
    /// progress()'s deadline check: if the earliest flush deadline is
    /// due, claim it, run every handler's flush_due() and re-arm the
    /// earliest deadline they still hold.  True when it sent a queue.
    bool flush_due_handlers();

    std::uint32_t here_;
    net::transport& transport_;
    threading::scheduler& scheduler_;

    mpmc_queue<send_job> outbound_;
    mpmc_queue<inbound_message> inbox_;

    mutable spinlock handlers_lock_;
    std::unordered_map<action_id, std::shared_ptr<message_handler>> handlers_;
    /// Earliest flush deadline any handler armed (now_ns() time; INT64_MAX
    /// = none).  Lowered by CAS-min; never raised when a queue flushes
    /// early, so it may be stale — claiming a stale one costs one
    /// flush_due() pass that finds nothing due.
    std::atomic<std::int64_t> next_flush_ns_{
        std::numeric_limits<std::int64_t>::max()};

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
    /// One slot per locality (declared before the ring: the ring's
    /// buckets hold entry pointers and must be destroyed first).
    peer_table peers_;
    due_ring ring_;
    /// Links whose health is not healthy; lets link_degraded() answer
    /// "none" without any peer lock.  Mutated only under the owning
    /// peer's lock (update_link_locked and the crash reset).
    std::atomic<std::size_t> degraded_links_{0};
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
    /// full-table walk under lock.
    std::atomic<std::size_t> unacked_total_{0};
    std::atomic<std::size_t> held_total_{0};
    std::atomic<std::size_t> acks_pending_{0};
    /// Peers currently declared dead (gauge; mutated only under the
    /// owning peer's lock).  Also put_parcel's lock-free dead-peer gate.
    std::atomic<std::size_t> dead_peers_{0};
    /// This locality's incarnation epoch; starts at 1, bumped by
    /// restart_incarnation().
    std::atomic<std::uint32_t> self_epoch_{1};
    std::atomic<bool> crashed_{false};
    /// Total time this locality's background progress spent stalled: a
    /// gap between progress() calls longer than a heartbeat interval (the
    /// process was descheduled, or tasks blocked every worker).  Peers'
    /// frames may simply not have been sent or read meanwhile — one host
    /// can stall both sides at once — so suspicion does not count stalled
    /// time as peer silence (the death verdict does).
    std::atomic<std::int64_t> last_progress_ns_{0};
    std::atomic<std::int64_t> stalled_ns_{0};
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
