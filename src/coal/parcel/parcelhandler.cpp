#include <coal/parcel/parcelhandler.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/timing/busy_work.hpp>
#include <coal/trace/tracer.hpp>

#include <algorithm>
#include <bit>
#include <limits>
#include <thread>
#include <utility>

namespace coal::parcel {

namespace {

    /// Cheap deterministic jitter in [0, 1): retransmit deadlines of
    /// different frames must not re-synchronize after a blackout.
    double jitter_unit(std::uint64_t seq, unsigned attempts) noexcept
    {
        std::uint64_t x = seq * 0x9e3779b97f4a7c15ull + attempts;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    /// Move a "links in this state" gauge as one link enters or leaves
    /// the state.  Mutated only under the link's peer lock.
    void step_gauge(std::atomic<std::size_t>& gauge, bool was, bool is) noexcept
    {
        if (was && !is)
            gauge.fetch_sub(1, std::memory_order_release);
        else if (is && !was)
            gauge.fetch_add(1, std::memory_order_release);
    }

    /// Marks a message as in-progress for the duration of a progress_*
    /// body.  Incremented before the queue pop and released only after
    /// the downstream handoff (transport send / task post), so pending
    /// counts never transiently read zero while work is in flight.
    struct in_progress_guard
    {
        explicit in_progress_guard(std::atomic<std::size_t>& count)
          : count_(count)
        {
            count_.fetch_add(1, std::memory_order_acq_rel);
        }

        ~in_progress_guard()
        {
            count_.fetch_sub(1, std::memory_order_acq_rel);
        }

        in_progress_guard(in_progress_guard const&) = delete;
        in_progress_guard& operator=(in_progress_guard const&) = delete;

    private:
        std::atomic<std::size_t>& count_;
    };

}    // namespace

parcelhandler::parcelhandler(std::uint32_t here, net::transport& transport,
    threading::scheduler& scheduler, reliability_params reliability,
    flow_params flow, membership_params membership)
  : here_(here)
  , transport_(transport)
  , scheduler_(scheduler)
  , reliability_(reliability)
  , flow_(flow)
  , membership_(membership)
  , peers_(transport.num_localities())
{
    COAL_ASSERT(here_ < peers_.size());

    // Credits travel in the frame's ack fields, so flow control requires
    // the reliability layer underneath it.  Membership likewise: epochs
    // and heartbeats ride the reliability prefix.
    if (flow_.enabled || membership_.enabled)
        reliability_.enabled = true;

    // One shared invocation context for every parcel this handler ever
    // executes; the per-parcel path just passes a reference.
    invoke_ctx_.this_locality = here_;
    invoke_ctx_.put_parcel = [this](parcel&& out) {
        put_parcel(std::move(out));
    };
    invoke_ctx_.complete_promise = [this](continuation_id id,
                                       serialization::shared_buffer&& payload) {
        complete_promise(id, std::move(payload));
    };

    transport_.set_delivery_handler(
        here, [this](std::uint32_t src, serialization::shared_buffer&& buffer) {
            inbox_.push(inbound_message{src, std::move(buffer)});
            scheduler_.wake();
        });

    scheduler_.install_progress(this);
}

parcelhandler::~parcelhandler()
{
    stop();
    scheduler_.install_progress(nullptr);
}

void parcelhandler::put_parcel(parcel&& p)
{
    COAL_ASSERT_MSG(p.action != 0, "parcel without action");
    p.source = here_;

    // A crashed incarnation delivers and executes nothing; surface the
    // parcel through the failure path so producer-side accounting still
    // balances (offered == confirmed + failed + shed).
    if (crashed_.load(std::memory_order_acquire))
    {
        std::vector<parcel> failed;
        failed.push_back(std::move(p));
        fail_parcels(delivery_error::peer_failed, std::move(failed));
        return;
    }

    if (p.dest == here_)
    {
        trace::tracer::global().record(
            here_, trace::event_kind::parcel_local, p.action);
        deliver_local(std::move(p));
        return;
    }

    // A parcel toward a peer the failure detector declared dead fails
    // immediately instead of queueing behind a link that will never ack.
    // (A rejoin under a new incarnation epoch clears the dead mark and
    // traffic resumes.)  Steady state costs one relaxed load.
    if (membership_.enabled &&
        dead_peers_.load(std::memory_order_acquire) != 0 &&
        peer_dead(p.dest))
    {
        std::vector<parcel> failed;
        failed.push_back(std::move(p));
        fail_parcels(delivery_error::peer_failed, std::move(failed));
        return;
    }

    // Admission control: under critical memory/link pressure, best-effort
    // parcels (no continuation — nobody is waiting on a future) are shed
    // here, before they can pin another frame's worth of pool bytes.
    // Continuation-bearing parcels are always admitted: their population
    // is bounded by the caller's outstanding futures, and shedding them
    // would strand promises forever.
    if (flow_.enabled && p.continuation == 0 &&
        flow_pressure(p.dest) == pressure_state::critical)
    {
        std::vector<parcel> shed;
        shed.push_back(std::move(p));
        fail_parcels(delivery_error::shed_overload, std::move(shed));
        return;
    }

    trace::tracer::global().record(
        here_, trace::event_kind::parcel_put, p.action, p.dest);
    counters_.parcels_sent.fetch_add(1, std::memory_order_relaxed);

    if (auto handler = message_handler_for(p.action))
    {
        divert(*handler, std::move(p));
        return;
    }

    std::uint32_t const dst = p.dest;
    std::vector<parcel> single;
    single.push_back(std::move(p));
    send_message(dst, std::move(single));
}

void parcelhandler::divert(message_handler& handler, parcel&& p)
{
    handler.enqueue(std::move(p));
    scheduler_.request_idle_work();
}

bool parcelhandler::idle_flush()
{
    if (stopped_.load(std::memory_order_acquire) ||
        crashed_.load(std::memory_order_acquire))
        return false;
    for (auto const& h : installed_handlers())
        h->flush_idle();
    return true;
}

void parcelhandler::push_message(
    std::uint32_t dst, std::vector<parcel>&& parcels)
{
    if (parcels.empty())
        return;
    COAL_ASSERT(dst != here_);
    outbound_.push(send_job{dst, std::move(parcels)});
}

void parcelhandler::set_message_handler(
    action_id id, std::shared_ptr<message_handler> handler)
{
    std::lock_guard lock(handlers_lock_);
    if (handler == nullptr)
        handlers_.erase(id);
    else
        handlers_[id] = std::move(handler);
}

std::shared_ptr<message_handler> parcelhandler::message_handler_for(
    action_id id) const
{
    std::lock_guard lock(handlers_lock_);
    auto it = handlers_.find(id);
    return it == handlers_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<message_handler>>
parcelhandler::installed_handlers() const
{
    std::vector<std::shared_ptr<message_handler>> handlers;
    std::lock_guard lock(handlers_lock_);
    handlers.reserve(handlers_.size());
    for (auto const& [id, h] : handlers_)
        handlers.push_back(h);
    return handlers;
}

void parcelhandler::flush_message_handlers()
{
    for (auto const& h : installed_handlers())
        h->flush();
}

void parcelhandler::arm_flush_deadline(std::int64_t deadline_ns)
{
    std::int64_t cur = next_flush_ns_.load(std::memory_order_relaxed);
    while (deadline_ns < cur)
    {
        if (next_flush_ns_.compare_exchange_weak(
                cur, deadline_ns, std::memory_order_acq_rel))
        {
            scheduler_.wake();
            return;
        }
    }
}

void parcelhandler::note_deadline_flush(std::int64_t lateness_ns) noexcept
{
    // Never negative: a queue is flushed only once its deadline passed.
    auto const late = static_cast<std::uint64_t>(lateness_ns);
    counters_.deadline_flushes.fetch_add(1, std::memory_order_relaxed);
    counters_.deadline_lateness_ns.fetch_add(late, std::memory_order_relaxed);
    std::uint64_t max = counters_.deadline_lateness_max_ns.load(
        std::memory_order_relaxed);
    while (late > max &&
        !counters_.deadline_lateness_max_ns.compare_exchange_weak(
            max, late, std::memory_order_relaxed))
    {
    }
}

bool parcelhandler::flush_due_handlers()
{
    constexpr std::int64_t none = std::numeric_limits<std::int64_t>::max();
    std::int64_t const armed = next_flush_ns_.load(std::memory_order_acquire);
    if (armed == none)
        return false;
    std::int64_t const now = now_ns();
    if (now < armed)
        return false;
    // One worker claims the due deadline; concurrent callers now read
    // `none` and move on.  A queue armed meanwhile either lowered the
    // value before this exchange (and its deadline is visible to the
    // flush_due() walk below) or lowers it afterwards.
    std::int64_t const due =
        next_flush_ns_.exchange(none, std::memory_order_acq_rel);
    if (now < due)
    {
        // Another worker claimed first and re-armed a later deadline.
        arm_flush_deadline(due);
        return false;
    }
    // A size flush may have detached the queue that armed `due`, so the
    // walk can find nothing due: that poll did no work and reports none.
    std::int64_t next = none;
    std::size_t flushed = 0;
    for (auto const& h : installed_handlers())
        flushed += h->flush_due(now, next);
    arm_flush_deadline(next);
    return flushed != 0;
}

std::int64_t parcelhandler::max_idle_sleep_ns() const
{
    std::int64_t sleep = reliability_.enabled ? due_ring::tick_ns : 0;
    std::int64_t const due = next_flush_ns_.load(std::memory_order_acquire);
    // A stopped or crashed locality's progress() flushes nothing, so a
    // due deadline must not turn its idle sleep into a spin.
    if (due != std::numeric_limits<std::int64_t>::max() &&
        !stopped_.load(std::memory_order_acquire) &&
        !crashed_.load(std::memory_order_acquire))
    {
        // 0 would mean "until woken"; a due deadline polls at once.
        std::int64_t const until = std::max<std::int64_t>(due - now_ns(), 1);
        if (sleep == 0 || until < sleep)
            sleep = until;
    }
    return sleep;
}

continuation_id parcelhandler::register_response_callback(
    unique_function<void(serialization::shared_buffer&&)> callback)
{
    continuation_id const id =
        next_continuation_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(responses_lock_);
    responses_.emplace(id, std::move(callback));
    return id;
}

std::size_t parcelhandler::pending_responses() const
{
    std::lock_guard lock(responses_lock_);
    return responses_.size();
}

void parcelhandler::complete_promise(
    continuation_id id, serialization::shared_buffer&& payload)
{
    unique_function<void(serialization::shared_buffer&&)> callback;
    {
        std::lock_guard lock(responses_lock_);
        auto it = responses_.find(id);
        if (it == responses_.end())
        {
            COAL_LOG_WARN("parcel",
                "response for unknown continuation %llu at locality %u",
                static_cast<unsigned long long>(id), here_);
            return;
        }
        callback = std::move(it->second);
        responses_.erase(it);
    }
    callback(std::move(payload));
}

void parcelhandler::deliver_local(parcel&& p)
{
    counters_.parcels_local.fetch_add(1, std::memory_order_relaxed);
    scheduler_.post([this, parcel = std::move(p)]() mutable {
        execute_parcel(std::move(parcel));
    });
}

void parcelhandler::execute_parcel(parcel&& p)
{
    auto const* entry = action_registry::instance().find(p.action);
    if (entry == nullptr)
    {
        COAL_LOG_ERROR("parcel",
            "unknown action %llx at locality %u (parcel dropped)",
            static_cast<unsigned long long>(p.action), here_);
        return;
    }

    auto const action = p.action;
    try
    {
        entry->invoke(invoke_ctx_, std::move(p));
    }
    catch (std::exception const& e)
    {
        // Remote exceptions are not propagated across localities (see
        // README limitations); a throwing action must not take the
        // worker thread down with it.
        COAL_LOG_ERROR("parcel", "action '%s' threw: %s (parcel dropped)",
            entry->name.c_str(), e.what());
    }
    catch (...)
    {
        COAL_LOG_ERROR("parcel", "action '%s' threw a non-std exception "
                                 "(parcel dropped)",
            entry->name.c_str());
    }
    counters_.parcels_executed.fetch_add(1, std::memory_order_relaxed);
    trace::tracer::global().record(
        here_, trace::event_kind::parcel_executed, action);
}

// -- peer table --------------------------------------------------------------

peer_state& parcelhandler::live_locked(peer_entry& e)
{
    if (e.live)
        return *e.live;
    peer_state& peer =
        peers_.create(e, self_epoch_.load(std::memory_order_relaxed));
    // First contact hands the entry to the due ring so liveness/heartbeat
    // service starts (entry -> ring bucket is within the lock order).
    // The first service is due NOW, not one heartbeat out: a fresh
    // peer_state has last_sent_ns == 0, so the next drain emits the
    // greeting heartbeat immediately — carrying our epoch, the cumulative
    // ack and a credit grant — and starts the phi silence clock.
    // Deferring it by a full heartbeat interval would leave the initial
    // frame's ack hostage to the delayed-ack timer alone.
    if (membership_.enabled)
        ring_.schedule(e, now_ns());
    return peer;
}

bool parcelhandler::progress_send()
{
    in_progress_guard guard(sends_in_progress_);
    // Re-checked under the guard: simulate_crash() waits for in-progress
    // counts to reach zero before tearing state down, so a worker that
    // raced past progress()'s check must not pop a job here.
    if (crashed_.load(std::memory_order_acquire))
        return false;
    auto job = outbound_.try_pop();
    if (!job)
        return false;

    // Framing + transmission: this runs in background-work context, and
    // transport_.send burns the modeled per-message sender CPU here.
    serialization::wire_message wire;
    if (reliability_.enabled)
    {
        frame_header hdr;
        std::int64_t const now = now_ns();
        std::size_t const est = message_wire_size(job->parcels);
        std::uint32_t const dst = job->dst;
        bool down = false;
        bool dead = false;
        bool deferred = false;
        bool released = false;
        std::uint64_t gen = 0;
        std::uint64_t deferred_bytes_after = 0;
        // All protocol work below holds the PEER's lock — two
        // destinations never serialize on each other.
        peer_entry& e = peers_[dst];
        {
            std::lock_guard lock(e.lock);
            peer_state& peer = live_locked(e);
            released = job->released && job->released_gen == peer.stream_gen;
            if (released)
                peer.released_bytes -=
                    std::min<std::uint64_t>(peer.released_bytes, job->bytes);
            if (membership_.enabled && peer.status == peer_status::dead)
            {
                // Jobs already queued when the peer was declared dead (or
                // flushed out of coalescing queues by the death) fail here.
                dead = true;
            }
            else if (flow_.enabled)
            {
                if (peer.health == link_health::down)
                {
                    down = true;
                }
                else if (!released && should_defer_locked(peer, est))
                {
                    // Window exhausted: park the job on the peer instead
                    // of handing it to the wire.  No sequence number is
                    // consumed — the job re-enters this path when a grant
                    // or an ack opens the window.
                    if (peer.starved_since_ns == 0)
                        peer.starved_since_ns = now;
                    job->bytes = est;
                    peer.deferred_bytes += est;
                    deferred_bytes_after = peer.deferred_bytes;
                    peer.deferred.push_back(std::move(*job));
                    deferred_sends_.fetch_add(1, std::memory_order_release);
                    counters_.sends_deferred.fetch_add(
                        1, std::memory_order_relaxed);
                    update_link_locked(dst, peer, now);
                    deferred = true;
                }
            }
            if (!down && !dead && !deferred)
            {
                gen = peer.stream_gen;
                hdr.seq = peer.next_seq++;
                piggyback_locked(peer, hdr, now);
                stamp_epochs_locked(peer, hdr);
            }
        }
        if (dead)
        {
            fail_parcels(delivery_error::peer_failed, std::move(job->parcels));
            return true;
        }
        if (down)
        {
            fail_parcels(delivery_error::link_down, std::move(job->parcels));
            return true;
        }
        if (deferred)
        {
            // Make sure the deferred queue gets service (starvation trip,
            // release) even if no ack ever arrives to drive it.
            ring_.schedule(e, now + defer_service_us * 1000);
            trace::tracer::global().record(here_,
                trace::event_kind::send_deferred, dst, deferred_bytes_after);
            return true;    // consumed a queue item (into the defer queue)
        }
        serialization::wire_message frame = encode_message(job->parcels, hdr);
        serialization::shared_buffer flat;
        std::int64_t retransmit_at = 0;
        std::vector<send_job> more;
        {
            // Register the frame before handing it to the transport so a
            // synchronous loopback ack always finds its entry.
            std::lock_guard lock(e.lock);
            peer_state& peer = live_locked(e);
            if (membership_.enabled &&
                (peer.status == peer_status::dead || peer.stream_gen != gen))
            {
                // Declared dead — or fenced by a death/rejoin — between the
                // two lock sections.  Registering here would inject a frame
                // of the fenced stream into the fresh one: its sequence
                // number was reset and will be re-issued, so the emplace
                // below would silently collide, and its stale epoch stamp
                // makes the receiver discard every retransmit — a permanent
                // hole that wedges the link.  Fail the job instead, exactly
                // as the fence failed its siblings.
                dead = true;
            }
            else
            {
                unacked_frame u;
                // Retained by reference: the retransmission table shares the
                // frame's fragments instead of deep-copying the wire image.
                u.frame = std::move(frame);
                u.bytes = est;
                u.parcels = static_cast<std::uint32_t>(job->parcels.size());
                u.first_send_ns = now;
                u.rto_ns = initial_rto_ns_locked(peer);
                u.deadline_ns = now + u.rto_ns;
                retransmit_at = u.deadline_ns;
                peer.unacked_bytes += est;
                auto const it =
                    peer.unacked.emplace(hdr.seq, std::move(u)).first;
                // The transport must not alias the retained fragments —
                // service_peer patches the ack/sack prefix in place under
                // this lock before every retransmit.  Take the one gather
                // copy per transmission here, while the frame is
                // guaranteed stable.
                flat = it->second.frame.flatten_copy();
                unacked_total_.fetch_add(1, std::memory_order_release);
                // The last released job is out: jobs deferred behind it
                // only for ordering may fit the window now.
                if (released && peer.released_bytes == 0)
                    release_deferred_locked(peer, more, now);
                update_link_locked(dst, peer, now);
            }
        }
        requeue_released(more);
        if (dead)
        {
            fail_parcels(delivery_error::peer_failed, std::move(job->parcels));
            return true;
        }
        // Arm the retransmission timer (CAS-min: a no-op if an earlier
        // deadline is already registered).
        ring_.schedule(e, retransmit_at);
        wire = serialization::wire_message(std::move(flat));
    }
    else
    {
        // Fire-and-forget: the fragment chain goes straight to the
        // transport, which flattens (or moves out) at the wire boundary.
        wire = encode_message(job->parcels);
    }

    std::size_t const wire_bytes = wire.size();
    trace::tracer::global().record(here_, trace::event_kind::message_sent,
        job->parcels.size(), wire_bytes);
    counters_.messages_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_sent.fetch_add(wire_bytes, std::memory_order_relaxed);

    transport_.send(here_, job->dst, std::move(wire));
    return true;
}

bool parcelhandler::progress_receive()
{
    in_progress_guard guard(receives_in_progress_);
    if (crashed_.load(std::memory_order_acquire))
        return false;

    // Budgeted multi-frame drain: amortize the poll (and, under load, the
    // wake-up that led here) over up to receive_drain_budget frames
    // instead of re-entering the whole progress machinery per frame.
    std::size_t frames = 0;
    while (frames != receive_drain_budget)
    {
        auto msg = inbox_.try_pop();
        if (!msg)
            break;
        ++frames;
        receive_one(std::move(*msg));
    }
    if (frames == 0)
        return false;

    counters_.receive_drains.fetch_add(1, std::memory_order_relaxed);
    counters_.frames_drained.fetch_add(frames, std::memory_order_relaxed);
    return true;
}

void parcelhandler::receive_one(inbound_message&& msg)
{
    counters_.messages_received.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_received.fetch_add(
        msg.payload.size(), std::memory_order_relaxed);

    frame_info info;
    try
    {
        info = peek_frame(msg.payload);
    }
    catch (serialization::serialization_error const& e)
    {
        COAL_LOG_WARN("parcel",
            "malformed frame from locality %u dropped: %s", msg.src, e.what());
        return;
    }

    trace::tracer::global().record(here_,
        trace::event_kind::message_received, info.count, msg.payload.size());

    // Membership gate, BEFORE any ack/credit/dedup processing: a frame
    // from a fenced incarnation (or addressed to a previous incarnation of
    // this locality) must not touch the live link state — cross-epoch acks
    // applied to fresh sequence numbers would corrupt exactly-once
    // delivery.
    if (!membership_admit(msg.src, info))
        return;

    if (reliability_.enabled && info.header.seq != 0)
    {
        // Duplicate check from the O(1) prefix peek, BEFORE the modeled
        // per-message protocol spin: a retransmit of a frame we already
        // hold must not cost receive_overhead a second time.  This early
        // check is only an optimization — the authoritative one happens
        // again at insertion below, under the same lock.
        bool duplicate = false;
        bool stale = false;
        peer_entry& e = peers_[msg.src];
        {
            std::int64_t const now = now_ns();
            std::lock_guard lock(e.lock);
            peer_state& peer = live_locked(e);
            if (membership_.enabled && info.header.src_epoch != 0 &&
                info.header.src_epoch != peer.epoch)
            {
                // A fence slid in after membership_admit released the lock:
                // this frame belongs to the fenced incarnation now.  Its
                // seq/ack state must not touch the fresh stream.
                stale = true;
            }
            else if (info.header.seq <= peer.cum_received ||
                peer.held.count(info.header.seq) != 0)
            {
                duplicate = true;
                // Re-ack immediately-ish so the sender stops resending.
                schedule_ack_locked(e, peer, now);
            }
        }
        if (stale)
        {
            counters_.stale_epoch_frames.fetch_add(
                1, std::memory_order_relaxed);
            return;
        }
        if (duplicate)
        {
            handle_acks(msg.src, info.header);    // dups carry fresh acks
            counters_.duplicates_suppressed.fetch_add(
                1, std::memory_order_relaxed);
            counters_.duplicate_overhead_avoided.fetch_add(
                1, std::memory_order_relaxed);
            return;
        }
    }

    // Receiver-side per-message CPU cost (protocol processing).
    timing::spin_for_us(transport_.recv_overhead_us());

    if (!reliability_.enabled || info.header.seq == 0)
    {
        // Unsequenced frame: standalone ack (count == 0) or plain traffic
        // with the reliability layer off.
        if (reliability_.enabled)
            handle_acks(msg.src, info.header);
        spawn_parcel_tasks(std::move(msg.payload), info.count);
        return;
    }

    handle_acks(msg.src, info.header);

    // Sequenced data frame: suppress duplicates, hold out-of-order frames
    // back (undecoded), and release the in-order prefix.  The duplicate
    // re-check is required: two workers may have popped two copies of the
    // same seq concurrently and both passed the early check above.
    std::vector<held_frame> ready;
    {
        std::int64_t const now = now_ns();
        peer_entry& e = peers_[msg.src];
        std::lock_guard lock(e.lock);
        peer_state& peer = live_locked(e);
        if (membership_.enabled && info.header.src_epoch != 0 &&
            info.header.src_epoch != peer.epoch)
        {
            // Fenced while this thread was between lock holds: parking the
            // frame would leave a hold-out of the dead incarnation in the
            // fresh stream's reorder buffer — a seq the new stream may
            // never fill.  Drop it undecoded.
            counters_.stale_epoch_frames.fetch_add(
                1, std::memory_order_relaxed);
            return;
        }
        if (info.header.seq <= peer.cum_received ||
            peer.held.count(info.header.seq) != 0)
        {
            counters_.duplicates_suppressed.fetch_add(
                1, std::memory_order_relaxed);
            schedule_ack_locked(e, peer, now);
        }
        else
        {
            peer.held.emplace(info.header.seq,
                held_frame{std::move(msg.payload), info.count});
            held_total_.fetch_add(1, std::memory_order_release);
            for (;;)
            {
                auto it = peer.held.find(peer.cum_received + 1);
                if (it == peer.held.end())
                    break;
                ++peer.cum_received;
                ready.push_back(std::move(it->second));
                peer.held.erase(it);
                held_total_.fetch_sub(1, std::memory_order_release);
            }
            schedule_ack_locked(e, peer, now);
        }
    }

    for (auto& frame : ready)
        spawn_parcel_tasks(std::move(frame.payload), frame.count);
}

std::size_t parcelhandler::chunk_size_for(std::size_t count) const noexcept
{
    // ~2 chunks per worker keeps every worker fed and leaves slack for
    // stealing to balance uneven action runtimes, without descending to
    // chunk sizes where per-task overhead reappears.
    std::size_t const workers = std::max<std::size_t>(
        scheduler_.num_workers(), 1);
    std::size_t const per_chunk = (count + 2 * workers - 1) / (2 * workers);
    return std::max(per_chunk, receive_min_chunk_parcels);
}

void parcelhandler::spawn_parcel_tasks(
    serialization::shared_buffer&& buffer, std::uint32_t count)
{
    if (count == 0)
        return;    // standalone ack frame

    std::size_t const chunk = chunk_size_for(count);
    std::vector<std::size_t> offsets;
    try
    {
        offsets = scan_parcel_offsets(buffer, count, chunk);
    }
    catch (serialization::serialization_error const& e)
    {
        COAL_LOG_WARN(
            "parcel", "malformed frame body dropped: %s", e.what());
        return;
    }

    counters_.parcels_received.fetch_add(count, std::memory_order_relaxed);

    // One chunk task per boundary; each borrows the frame slab by
    // refcount and decodes its own parcel range on the worker that runs
    // it — the deserialization never executes on this (background) path.
    std::size_t const nchunks = offsets.size() - 1;
    std::vector<threading::task_type> tasks;
    tasks.reserve(nchunks);
    std::size_t remaining = count;
    for (std::size_t c = 0; c != nchunks; ++c)
    {
        std::size_t const in_chunk = std::min(chunk, remaining);
        remaining -= in_chunk;
        tasks.push_back(
            [this, buffer, offset = offsets[c], in_chunk]() mutable {
                execute_chunk(std::move(buffer), offset, in_chunk);
            });
    }

    counters_.chunk_tasks.fetch_add(nchunks, std::memory_order_relaxed);
    counters_.chunk_parcels.fetch_add(count, std::memory_order_relaxed);
    scheduler_.post_n(std::move(tasks));
}

void parcelhandler::execute_chunk(
    serialization::shared_buffer buffer, std::size_t offset, std::size_t count)
{
    std::int64_t const t_start = now_ns();
    std::vector<parcel> parcels;
    try
    {
        parcels = decode_parcel_range(buffer, offset, count);
    }
    catch (serialization::serialization_error const& e)
    {
        // scan_parcel_offsets validated the frame end to end, so this
        // would indicate slab corruption; drop the chunk, not the worker.
        COAL_LOG_ERROR(
            "parcel", "chunk decode failed: %s (parcels dropped)", e.what());
        return;
    }
    counters_.decode_offload_ns.fetch_add(
        static_cast<std::uint64_t>(now_ns() - t_start),
        std::memory_order_relaxed);

    for (auto& p : parcels)
        execute_parcel(std::move(p));
}

void parcelhandler::handle_acks(std::uint32_t src, frame_header const& hdr)
{
    std::int64_t const now = now_ns();
    std::vector<send_job> released;
    std::int64_t rearm = std::numeric_limits<std::int64_t>::max();
    peer_entry& e = peers_[src];
    {
        std::lock_guard lock(e.lock);
        peer_state& peer = live_locked(e);

        // membership_admit runs under a separate lock hold; a fence can
        // slide in between.  Acks of the fenced incarnation applied to the
        // fresh stream's (recycled) sequence numbers would release frames
        // the new incarnation never received — silent loss.
        if (membership_.enabled && hdr.src_epoch != 0 &&
            hdr.src_epoch != peer.epoch)
            return;

        auto release =
            [&](std::map<std::uint64_t, unacked_frame>::iterator it) {
                unacked_frame const& u = it->second;
                counters_.ack_latency_ns.fetch_add(
                    static_cast<std::uint64_t>(now - u.first_send_ns),
                    std::memory_order_relaxed);
                counters_.acked_messages.fetch_add(
                    1, std::memory_order_relaxed);
                counters_.parcels_confirmed.fetch_add(
                    u.parcels, std::memory_order_relaxed);
                if (u.attempts == 1)
                {
                    // Karn's rule: only never-retransmitted frames give an
                    // unambiguous RTT sample.
                    double const sample_us =
                        static_cast<double>(now - u.first_send_ns) / 1000.0;
                    peer.srtt_us = peer.srtt_us <= 0.0 ?
                        sample_us :
                        (1.0 - rtt_gain) * peer.srtt_us + rtt_gain * sample_us;
                }
                peer.unacked_bytes -=
                    std::min<std::uint64_t>(peer.unacked_bytes, u.bytes);
                peer.unacked.erase(it);
                unacked_total_.fetch_sub(1, std::memory_order_release);
            };

        while (!peer.unacked.empty() && peer.unacked.begin()->first <= hdr.ack)
            release(peer.unacked.begin());
        for (unsigned i = 0; i != 64; ++i)
        {
            if ((hdr.sack & (1ull << i)) == 0)
                continue;
            if (auto it = peer.unacked.find(hdr.ack + 1 + i);
                it != peer.unacked.end())
                release(it);
        }

        // Loss inference from the same bitmap (RFC 6675 fast retransmit,
        // RFC 5827 early retransmit): a hole is lost once dupthresh frames
        // above it are selectively acked, or once every frame sent after
        // it is (a short tail never reaches dupthresh).  The hole is made
        // due now, so service_peer's retransmit loop resends it one round
        // trip after the loss instead of one RTO.  Only first
        // transmissions qualify: a retransmit still in flight is not
        // contradicted by sacks of frames sent before it.
        if (hdr.sack != 0)
        {
            for (auto& [seq, u] : peer.unacked)
            {
                // Bits above seq's own: bit i stands for hdr.ack + 1 + i.
                std::uint64_t const shift = seq - hdr.ack;
                int const sacked_above =
                    shift < 64 ? std::popcount(hdr.sack >> shift) : 0;
                if (sacked_above == 0)
                    break;    // nor above any later hole
                std::uint64_t const sent_after = peer.next_seq - 1 - seq;
                if (u.attempts != 1 || u.fast_retransmitted ||
                    static_cast<std::uint64_t>(sacked_above) <
                        std::min(fast_retransmit_dupthresh, sent_after))
                    continue;
                u.fast_retransmitted = true;
                u.deadline_ns = now;
                rearm = now;
            }
        }

        // The acks may have retired a dark link's frames: re-derive the
        // link before releasing deferred jobs, which a down link keeps.
        update_link_locked(src, peer, now);
        if (flow_.enabled)
        {
            // Apply the piggybacked window grant (biased by one on the
            // wire; 0 means the peer advertised nothing on this frame).
            if (hdr.credit != 0)
            {
                std::uint64_t const window = hdr.credit - 1;
                if (!peer.has_credit || peer.credit_window != window)
                    counters_.credit_updates.fetch_add(
                        1, std::memory_order_relaxed);
                peer.has_credit = true;
                peer.credit_window = window;
            }
            // Acked bytes and fresh grants both open window space — give
            // deferred jobs a chance immediately rather than waiting for
            // the next service tick.
            release_deferred_locked(peer, released, now);
            update_link_locked(src, peer, now);
            if (!peer.deferred.empty())
                rearm = std::min(rearm, now + defer_service_us * 1000);
        }
        // The sack window slid: frames that were beyond the selective-
        // repeat horizon (their timers paused) may be retransmittable
        // now.  Re-arm at the earliest remaining deadline — possibly in
        // the past, which the next ring drain services immediately.
        if (!peer.unacked.empty())
            rearm = std::min(
                rearm, peer.unacked.begin()->second.deadline_ns);
    }

    ring_.schedule(e, rearm);
    requeue_released(released);
}

void parcelhandler::schedule_ack_locked(
    peer_entry& e, peer_state& peer, std::int64_t now)
{
    if (peer.ack_pending)
        return;
    peer.ack_pending = true;
    acks_pending_.fetch_add(1, std::memory_order_release);
    peer.ack_deadline_ns = now + reliability_.ack_delay_us * 1000;
    ring_.schedule(e, peer.ack_deadline_ns);
}

std::uint64_t parcelhandler::sack_bits_locked(peer_state const& peer) const
{
    std::uint64_t bits = 0;
    for (auto const& [seq, batch] : peer.held)
    {
        std::uint64_t const off = seq - peer.cum_received - 1;
        if (off >= 64)
            break;    // map is ordered: later entries are further out
        bits |= 1ull << off;
    }
    return bits;
}

std::int64_t parcelhandler::initial_rto_ns_locked(peer_state const& peer) const
{
    double rto_us = static_cast<double>(reliability_.min_rto_us);
    if (peer.srtt_us > 0.0)
        rto_us = std::clamp(rto_rtt_multiplier * peer.srtt_us,
            static_cast<double>(reliability_.min_rto_us),
            static_cast<double>(reliability_.max_rto_us));
    return static_cast<std::int64_t>(rto_us * 1000.0);
}

std::int64_t parcelhandler::service_peer(peer_entry& e)
{
    constexpr std::int64_t never = std::numeric_limits<std::int64_t>::max();
    if (!reliability_.enabled || crashed_.load(std::memory_order_acquire))
        return never;

    std::int64_t const now = now_ns();
    std::int64_t next = never;
    auto const closer = [&next](std::int64_t at) {
        if (at < next)
            next = at;
    };

    std::uint32_t const dst = e.id;
    bool send_ack = false;
    frame_header ack_hdr;
    std::vector<serialization::shared_buffer> resends;
    std::vector<send_job> released;
    std::vector<send_job> failed_deferred;
    bool died = false;
    fenced_state death;
    bool probe = false;
    frame_header probe_hdr;
    bool beat = false;
    frame_header beat_hdr;

    {
        std::lock_guard lock(e.lock);
        if (!e.live)
            return never;    // crash reset: nothing to service, ring de-arms
        peer_state& peer = *e.live;

        // Delayed ack whose deadline came.
        if (peer.ack_pending)
        {
            if (now >= peer.ack_deadline_ns)
            {
                piggyback_locked(peer, ack_hdr, now);
                stamp_epochs_locked(peer, ack_hdr);
                send_ack = true;
            }
            else
            {
                closer(peer.ack_deadline_ns);
            }
        }

        if (flow_.enabled && peer.status != peer_status::dead)
        {
            // Credit starvation is timed: re-derive the link first.
            update_link_locked(dst, peer, now);
            if (peer.health == link_health::down && !peer.deferred.empty())
            {
                // Down link: retained frames stay (they are what
                // exactly-once delivery replays if the link heals) but
                // deferred jobs — which never consumed a sequence number
                // — fail with a distinct error instead of queueing
                // behind an unbounded blackout.
                while (!peer.deferred.empty())
                {
                    send_job& front = peer.deferred.front();
                    peer.deferred_bytes -= std::min<std::uint64_t>(
                        peer.deferred_bytes, front.bytes);
                    failed_deferred.push_back(std::move(front));
                    peer.deferred.pop_front();
                }
                peer.starved_since_ns = 0;
            }
            else
            {
                release_deferred_locked(peer, released, now);
            }
            if (!peer.deferred.empty())
            {
                closer(now + defer_service_us * 1000);
                std::int64_t const starves_at = peer.starved_since_ns +
                    flow_.starvation_trip_us * 1000;
                if (starves_at > now)
                    closer(starves_at);
            }
        }

        // Selective repeat bounded by the wire format's 64-bit sack
        // horizon: the receiver can only report frames in [cum+1,
        // cum+64], so retransmitting beyond the left edge + 64 is blind —
        // those frames are usually already held on the receiver, and
        // resending them turns one early drop in a large burst into a
        // storm of spurious retransmits.  Their timers stay paused until
        // the window slides (handle_acks re-arms the ring when it does).
        std::uint64_t const window_end =
            peer.unacked.empty() ? 0 : peer.unacked.begin()->first + 64;
        for (auto& [seq, u] : peer.unacked)
        {
            if (seq > window_end)
                break;
            if (now < u.deadline_ns)
            {
                closer(u.deadline_ns);
                continue;
            }
            if (u.fast_retransmitted && u.attempts == 1)
            {
                // Made due by sack evidence (handle_acks), not by the
                // timer: no backoff, the RTO stays what it was.
                counters_.fast_retransmits.fetch_add(
                    1, std::memory_order_relaxed);
            }
            else
            {
                double backed = static_cast<double>(u.rto_ns) * rto_backoff;
                backed = std::min(backed,
                    static_cast<double>(reliability_.max_rto_us) * 1000.0);
                backed *= 1.0 + rto_jitter * jitter_unit(seq, u.attempts + 1);
                u.rto_ns = static_cast<std::int64_t>(backed);
            }
            u.attempts += 1;
            u.deadline_ns = now + u.rto_ns;
            closer(u.deadline_ns);
            // Refresh piggybacked acks and the credit grant — the stored
            // image has stale ones.  Patch + snapshot both happen under
            // the peer's lock, so no transport thread ever reads a
            // half-patched prefix; the retained frame itself is reused,
            // not deep-copied.  Its epochs stay as encoded (parcel.hpp).
            frame_header fresh;
            piggyback_locked(peer, fresh, now);
            patch_frame_acks(u.frame, fresh.ack, fresh.sack, fresh.credit);
            resends.push_back(u.frame.flatten_copy());
            counters_.retransmits.fetch_add(1, std::memory_order_relaxed);
        }

        if (membership_.enabled)
        {
            if (peer.status == peer_status::dead)
            {
                // Probe the dead peer occasionally: a restarted
                // incarnation answers (or just talks) with a higher
                // src_epoch, which readmits it through membership_admit.
                if (now - peer.last_probe_ns >=
                    membership_.probe_interval_us * 1000)
                {
                    peer.last_probe_ns = now;
                    peer.last_sent_ns = now;
                    stamp_epochs_locked(peer, probe_hdr);
                    // Poison probe: address the NEXT incarnation, not the
                    // fenced one.  A genuinely restarted peer carries a
                    // higher epoch anyway; a falsely-declared-dead peer
                    // sees a frame addressed past its own incarnation and
                    // learns it has been quarantined — it refutes by
                    // adopting the higher epoch (a virtual restart), which
                    // is the only way a false-positive death can heal:
                    // without it the victim retransmits into the
                    // quarantine forever while these very probes keep
                    // refreshing its liveness view of us.
                    ++probe_hdr.dst_epoch;
                    probe = true;
                }
                closer(peer.last_probe_ns +
                    membership_.probe_interval_us * 1000);
            }
            else
            {
                // Phi-accrual suspicion: how many expected inter-arrival
                // gaps have elapsed since the peer was last heard?
                std::int64_t const stalled =
                    stalled_ns_.load(std::memory_order_relaxed);
                if (peer.last_heard_ns == 0)
                {
                    peer.last_heard_ns = now;    // start the silence clock
                    peer.stalled_at_heard_ns = stalled;
                }
                // Suspicion skips time we spent stalled ourselves: it is
                // not the peer's silence.  The death verdict stays on
                // wall-clock silence — back-to-back long tasks stall every
                // gap between our progress() calls, and a crashed peer
                // must still be declared dead; min_dead_us keeps one
                // short stall from fencing a live peer.
                std::int64_t const wall_ns = now - peer.last_heard_ns;
                double const elapsed_us =
                    static_cast<double>(wall_ns) / 1000.0;
                double const mean_us = std::max(peer.ewma_interarrival_us,
                    static_cast<double>(membership_.heartbeat_interval_us));
                double const phi = elapsed_us / mean_us;
                double const net_phi =
                    static_cast<double>(wall_ns -
                        (stalled - peer.stalled_at_heard_ns)) /
                    1000.0 / mean_us;

                if (peer.status == peer_status::alive &&
                    net_phi >= membership_.suspect_phi)
                {
                    peer.status = peer_status::suspected;
                    counters_.peers_suspected.fetch_add(
                        1, std::memory_order_relaxed);
                    trace::tracer::global().record(here_,
                        trace::event_kind::peer_suspected, dst,
                        static_cast<std::uint64_t>(net_phi * 1000.0));
                    COAL_LOG_WARN("parcel",
                        "peer %u suspected (phi %.1f, silent %.0f us): "
                        "coalescing bypassed",
                        dst, net_phi, elapsed_us);
                }

                if (phi >= membership_.dead_phi &&
                    elapsed_us >=
                        static_cast<double>(membership_.min_dead_us))
                {
                    peer.status = peer_status::dead;
                    dead_peers_.fetch_add(1, std::memory_order_release);
                    counters_.peers_declared_dead.fetch_add(
                        1, std::memory_order_relaxed);
                    fence_peer_locked(e, peer, death);
                    died = true;
                    peer.last_probe_ns = now;
                    closer(peer.last_probe_ns +
                        membership_.probe_interval_us * 1000);
                }
                else
                {
                    // Keep the link's liveness signal alive when it is
                    // otherwise idle: a standalone heartbeat doubles as an
                    // ack/credit carrier, so a quiet link still converges
                    // its flow state.
                    if (now - peer.last_sent_ns >=
                        membership_.heartbeat_interval_us * 1000)
                    {
                        piggyback_locked(peer, beat_hdr, now);
                        stamp_epochs_locked(peer, beat_hdr);
                        beat = true;
                    }
                    // The heartbeat cadence doubles as the phi-check
                    // cadence: every pop re-evaluates suspicion/death.
                    closer(peer.last_sent_ns +
                        membership_.heartbeat_interval_us * 1000);
                }
            }
        }
        // Retransmits raised attempt counts, suspicion may have changed.
        update_link_locked(dst, peer, now);
    }

    // Everything with side effects outside the peer happens after the
    // lock is released: transport sends, delivery-error callbacks,
    // coalescer flushes.
    if (send_ack)
    {
        counters_.acks_sent.fetch_add(1, std::memory_order_relaxed);
        transport_.send(here_, dst, encode_message({}, ack_hdr));
    }
    for (auto& flat : resends)
        transport_.send(
            here_, dst, serialization::wire_message(std::move(flat)));
    requeue_released(released);
    for (auto& job : failed_deferred)
    {
        fail_parcels(delivery_error::link_down, std::move(job.parcels));
        deferred_sends_.fetch_sub(1, std::memory_order_release);
    }
    if (probe || beat)
    {
        counters_.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
        transport_.send(
            here_, dst, encode_message({}, probe ? probe_hdr : beat_hdr));
    }
    if (died)
    {
        std::size_t const failed = fail_fenced(std::move(death));
        trace::tracer::global().record(
            here_, trace::event_kind::peer_failed, dst, failed);
        COAL_LOG_WARN("parcel",
            "peer %u declared dead: link fenced, %zu parcels failed "
            "(peer_failed)",
            dst, failed);
        // Parcels coalesced toward the dead peer must not sit in its
        // queues until the batch/delay trigger fires: flush now so they
        // reach progress_send and fail promptly.
        flush_message_handlers();
    }

    // Never hand the ring a deadline in the past: a condition that stays
    // "due" (e.g. a paused retransmit timer) would otherwise re-service
    // at every drain in a hot loop.
    if (next != never && next <= now)
        next = now + due_ring::tick_ns;
    return next;
}

std::size_t parcelhandler::pending_reliability() const
{
    if (!reliability_.enabled)
        return 0;
    // Maintained at every mutation point; no store walk, no locks.
    return unacked_total_.load(std::memory_order_acquire) +
        held_total_.load(std::memory_order_acquire) +
        acks_pending_.load(std::memory_order_acquire);
}

bool parcelhandler::link_degraded(std::uint32_t dst) const
{
    // Fast path for the coalescer's enqueue: with every link healthy (the
    // steady state), one atomic load and no lock.
    if (degraded_links_.load(std::memory_order_acquire) == 0)
        return false;
    peer_entry const& e = peers_[dst];
    std::lock_guard lock(e.lock);
    return e.live != nullptr && e.live->health != link_health::healthy;
}

pressure_state parcelhandler::flow_pressure(std::uint32_t dst) const
{
    if (!flow_.enabled)
        return pressure_state::ok;
    pressure_state const pool =
        serialization::buffer_pool::global().pressure();
    // Steady state: no link above ok anywhere — answer without any lock.
    if (pressured_links_.load(std::memory_order_relaxed) == 0)
        return pool;
    peer_entry const& e = peers_[dst];
    std::lock_guard lock(e.lock);
    if (e.live == nullptr)
        return pool;
    return max_pressure(pool, e.live->link_pressure);
}

pressure_state parcelhandler::current_pressure() const noexcept
{
    if (!flow_.enabled)
        return pressure_state::ok;
    // The worst link state is derived from two counters maintained under
    // the owning peers' locks — O(1) instead of the old full-map scan.
    pressure_state worst = pressure_state::ok;
    if (links_critical_.load(std::memory_order_relaxed) != 0)
        worst = pressure_state::critical;
    else if (pressured_links_.load(std::memory_order_relaxed) != 0)
        worst = pressure_state::soft;
    return max_pressure(
        serialization::buffer_pool::global().pressure(), worst);
}

std::uint64_t parcelhandler::advertised_credit_wire() const noexcept
{
    std::uint64_t window = flow_.window_bytes;
    switch (serialization::buffer_pool::global().pressure())
    {
    case pressure_state::soft:
        window /= 4;
        break;
    case pressure_state::critical:
        window /= 16;
        break;
    case pressure_state::ok:
        break;
    }
    // Never advertise below the floor (and never 0 on the wire): the pool
    // is process-global, so a sender's own backlog can raise the pressure
    // this grant is computed from — a zero grant could then deadlock the
    // very traffic that would relieve it.
    window = std::max(window, flow_.min_window_bytes);
    return window + 1;
}

bool parcelhandler::should_defer_locked(
    peer_state const& peer, std::size_t bytes) const noexcept
{
    // Per-peer FIFO: never overtake an older job that is still deferred
    // or released and waiting in the outbound queue.
    if (!peer.deferred.empty() || peer.released_bytes != 0)
        return true;
    if (peer.unacked_bytes == 0)
        return false;    // one frame may always fly: no-deadlock guarantee
    std::uint64_t const window =
        peer.has_credit ? peer.credit_window : flow_.initial_window_bytes;
    return peer.unacked_bytes + bytes > window;
}

void parcelhandler::release_deferred_locked(
    peer_state& peer, std::vector<send_job>& released, std::int64_t now)
{
    if (peer.deferred.empty() || peer.health == link_health::down)
        return;
    std::uint64_t const window =
        peer.has_credit ? peer.credit_window : flow_.initial_window_bytes;
    // Plan against the window as if each released job were already on the
    // wire — otherwise one grant would release the whole queue at once
    // and progress_send would immediately re-defer most of it.
    std::uint64_t planned = peer.unacked_bytes + peer.released_bytes;
    bool any = false;
    while (!peer.deferred.empty())
    {
        send_job& front = peer.deferred.front();
        if (planned != 0 && planned + front.bytes > window)
            break;
        planned += front.bytes;
        peer.deferred_bytes -=
            std::min<std::uint64_t>(peer.deferred_bytes, front.bytes);
        peer.released_bytes += front.bytes;
        front.released = true;
        front.released_gen = peer.stream_gen;
        released.push_back(std::move(front));
        peer.deferred.pop_front();
        any = true;
    }
    if (peer.deferred.empty())
        peer.starved_since_ns = 0;
    else if (any)
        peer.starved_since_ns = now;    // the window moved: not starved
}

void parcelhandler::requeue_released(std::vector<send_job>& released)
{
    for (auto& job : released)
    {
        outbound_.push(std::move(job));
        deferred_sends_.fetch_sub(1, std::memory_order_release);
        counters_.sends_released.fetch_add(1, std::memory_order_relaxed);
    }
}

void parcelhandler::update_link_locked(
    std::uint32_t dst, peer_state& peer, std::int64_t now)
{
    std::uint64_t const total = peer.unacked_bytes + peer.deferred_bytes;
    bool const capped = flow_.enabled && flow_.link_inflight_cap_bytes != 0 &&
        total >= flow_.link_inflight_cap_bytes;
    if (flow_.enabled)
    {
        pressure_state const was = peer.link_pressure;
        peer.link_pressure = capped ? pressure_state::critical :
            flow_.link_soft_bytes != 0 && total >= flow_.link_soft_bytes ?
                                      pressure_state::soft :
                                      pressure_state::ok;
        step_gauge(pressured_links_, was != pressure_state::ok,
            peer.link_pressure != pressure_state::ok);
        step_gauge(links_critical_, was == pressure_state::critical,
            peer.link_pressure == pressure_state::critical);
    }

    // Each cause is a predicate over the peer's state: it exits when the
    // predicate that made it enter turns false (see link_health).
    bool const dark = !peer.unacked.empty() &&
        peer.unacked.begin()->second.attempts > dark_link_attempts;
    bool const starved = peer.starved_since_ns != 0 &&
        now - peer.starved_since_ns >= flow_.starvation_trip_us * 1000;
    link_health const was = peer.health;
    if (dark || starved)
        peer.health = capped ? link_health::down : link_health::degraded;
    else
        peer.health = peer.status == peer_status::suspected ?
            link_health::degraded :
            link_health::healthy;
    step_gauge(degraded_links_, was != link_health::healthy,
        peer.health != link_health::healthy);
    // Suspicion counts and logs itself (service_peer).
    bool const tripped = was == link_health::healthy && (dark || starved);
    if (tripped)
    {
        counters_.circuit_breaker_trips.fetch_add(
            1, std::memory_order_relaxed);
        if (starved)
            counters_.starvation_trips.fetch_add(1, std::memory_order_relaxed);
    }
    char const* const cause = dark ? "dark link" : "credit-starved";
    if (was != link_health::down && peer.health == link_health::down)
    {
        COAL_LOG_WARN("parcel",
            "link %u->%u down (%s at its in-flight cap): sends fail", here_,
            dst, cause);
    }
    else if (tripped)
    {
        COAL_LOG_WARN("parcel",
            "link %u->%u degraded (%s): coalescing bypassed", here_, dst,
            cause);
    }
    else if (was != link_health::healthy && peer.health == link_health::healthy)
    {
        COAL_LOG_INFO("parcel", "link %u->%u healed: batching resumes",
            here_, dst);
    }
}

void parcelhandler::piggyback_locked(
    peer_state& peer, frame_header& hdr, std::int64_t now)
{
    hdr.ack = peer.cum_received;
    hdr.sack = sack_bits_locked(peer);
    hdr.credit = flow_.enabled ? advertised_credit_wire() : 0;
    if (peer.ack_pending)
    {
        peer.ack_pending = false;    // this frame carries the ack
        acks_pending_.fetch_sub(1, std::memory_order_release);
    }
    peer.last_sent_ns = now;
}

void parcelhandler::fail_parcels(
    delivery_error err, std::vector<parcel>&& parcels)
{
    if (parcels.empty())
        return;
    // The one funnel every undeliverable parcel passes through: per-cause
    // counter (the /net/count/delivery-errors/* family), the matching
    // trace event, then the delivery-error handler for each parcel.
    switch (err)
    {
    case delivery_error::shed_overload:
        counters_.parcels_shed.fetch_add(
            parcels.size(), std::memory_order_relaxed);
        for (auto const& p : parcels)
            trace::tracer::global().record(
                here_, trace::event_kind::parcel_shed, p.action, p.dest);
        break;
    case delivery_error::link_down:
        counters_.link_down_failures.fetch_add(
            parcels.size(), std::memory_order_relaxed);
        trace::tracer::global().record(here_, trace::event_kind::link_down,
            parcels.front().dest, parcels.size());
        break;
    case delivery_error::peer_failed:
        counters_.peer_failed_failures.fetch_add(
            parcels.size(), std::memory_order_relaxed);
        // The peer_failed trace event is emitted once where the death (or
        // crash) is declared, carrying the fenced total; a per-batch event
        // here would double-count it.
        break;
    }
    if (on_delivery_error_)
    {
        for (auto& p : parcels)
            on_delivery_error_(err, std::move(p));
    }
}

// -- membership / failure detection ----------------------------------------

void parcelhandler::stamp_epochs_locked(
    peer_state const& peer, frame_header& hdr) const
{
    if (!membership_.enabled)
        return;    // epoch 0 on the wire = membership checks bypassed
    // Stamp the epoch the STREAM is bound to, not the live self epoch:
    // (src_epoch, seq) consistency is then an invariant local to this
    // peer's lock, which is what lets an epoch refutation fence links one
    // at a time.  A send racing the refute sweep stamps the old epoch on
    // the old stream — the receiver fences it as a ghost — never the new
    // epoch on a stale sequence number.
    hdr.src_epoch = peer.link_epoch != 0 ?
        peer.link_epoch :
        self_epoch_.load(std::memory_order_relaxed);
    // Until the peer's epoch is observed, assume the initial incarnation.
    hdr.dst_epoch = peer.epoch == 0 ? 1 : peer.epoch;
}

bool parcelhandler::peer_dead(std::uint32_t dst) const
{
    peer_entry const& e = peers_[dst];
    std::lock_guard lock(e.lock);
    return e.live != nullptr && e.live->status == peer_status::dead;
}

void parcelhandler::fence_peer_locked(
    peer_entry& e, peer_state& peer, fenced_state& out)
{
    out.dst = e.id;
    out.unacked.reserve(out.unacked.size() + peer.unacked.size());
    unacked_total_.fetch_sub(
        peer.unacked.size(), std::memory_order_release);
    for (auto& [seq, u] : peer.unacked)
        out.unacked.push_back(std::move(u));
    peer.unacked.clear();
    peer.unacked_bytes = 0;
    out.deferred.reserve(out.deferred.size() + peer.deferred.size());
    for (auto& job : peer.deferred)
        out.deferred.push_back(std::move(job));
    peer.deferred.clear();
    peer.deferred_bytes = 0;
    peer.released_bytes = 0;
    peer.starved_since_ns = 0;
    // Sender protocol state restarts from scratch.  The generation bump
    // voids any send job that already drew a sequence number from the old
    // stream but has not registered its frame yet.
    ++peer.stream_gen;
    peer.next_seq = 1;
    peer.srtt_us = 0.0;
    peer.credit_window = 0;
    peer.has_credit = false;
    // The fresh stream binds to the CURRENT self incarnation.
    peer.link_epoch = self_epoch_.load(std::memory_order_relaxed);
    // Receiver side: out-of-order frames from the fenced incarnation are
    // dropped undecoded, and the dedup window resets with the epoch.
    peer.cum_received = 0;
    held_total_.fetch_sub(peer.held.size(), std::memory_order_release);
    peer.held.clear();
    if (peer.ack_pending)
    {
        peer.ack_pending = false;
        acks_pending_.fetch_sub(1, std::memory_order_release);
    }
    update_link_locked(e.id, peer, now_ns());
}

std::size_t parcelhandler::fail_fenced(fenced_state&& fenced)
{
    std::vector<parcel> parcels;
    for (auto& u : fenced.unacked)
    {
        // The retransmission table holds encoded frame images; decode them
        // back to parcels so the delivery-error handler sees what callers
        // handed to put_parcel.
        try
        {
            auto batch = decode_message(u.frame);
            for (auto& p : batch)
                parcels.push_back(std::move(p));
        }
        catch (serialization::serialization_error const& e)
        {
            COAL_LOG_ERROR("parcel",
                "fenced frame toward locality %u undecodable: %s "
                "(parcels lost to accounting)",
                fenced.dst, e.what());
        }
    }
    std::size_t const deferred_jobs = fenced.deferred.size();
    for (auto& job : fenced.deferred)
        for (auto& p : job.parcels)
            parcels.push_back(std::move(p));
    std::size_t const failed = parcels.size();
    fail_parcels(delivery_error::peer_failed, std::move(parcels));
    for (std::size_t i = 0; i != deferred_jobs; ++i)
        deferred_sends_.fetch_sub(1, std::memory_order_release);
    return failed;
}

bool parcelhandler::membership_admit(
    std::uint32_t src, frame_info const& info)
{
    if (!membership_.enabled)
        return true;

    frame_header const& hdr = info.header;
    std::int64_t const now = now_ns();
    fenced_state fenced;
    bool rejoined = false;
    bool admit = true;
    std::uint32_t rejoin_epoch = 0;
    std::uint32_t refute_epoch = 0;
    peer_entry& e = peers_[src];
    {
        std::lock_guard lock(e.lock);
        peer_state& peer = live_locked(e);

        // Source-epoch rules (0 = sender without membership: bypass).
        if (hdr.src_epoch != 0)
        {
            // First observation.  Frames already sequenced toward the
            // peer addressed the assumed initial incarnation (see
            // stamp_epochs_locked); a peer that first shows up under a
            // later epoch discards them on every retransmit, so that
            // case falls through to the rejoin fence below.
            if (peer.epoch == 0 && (peer.next_seq == 1 || hdr.src_epoch == 1))
            {
                peer.epoch = hdr.src_epoch;
            }
            else if (hdr.src_epoch < peer.epoch)
            {
                // Ghost from an incarnation that already rejoined under a
                // newer epoch: drop, and do NOT count it as a liveness
                // signal.
                counters_.stale_epoch_frames.fetch_add(
                    1, std::memory_order_relaxed);
                return false;
            }
            else if (hdr.src_epoch > peer.epoch)
            {
                // The peer restarted (or, on first contact, restarted
                // before we heard from it): fence every byte of state tied
                // to its previous incarnation, then admit the frame under
                // the new epoch.
                fence_peer_locked(e, peer, fenced);
                if (peer.status == peer_status::dead)
                    dead_peers_.fetch_sub(1, std::memory_order_release);
                peer.status = peer_status::alive;
                peer.epoch = hdr.src_epoch;
                peer.ewma_interarrival_us = 0.0;
                counters_.peer_rejoins.fetch_add(
                    1, std::memory_order_relaxed);
                rejoined = true;
                rejoin_epoch = hdr.src_epoch;
            }
            else if (peer.status == peer_status::dead)
            {
                // Same epoch as when we declared it dead: the incarnation
                // stays quarantined — only a restart under a higher epoch
                // readmits the peer (a false-positive death heals through
                // rejoin, never silently).
                counters_.stale_epoch_frames.fetch_add(
                    1, std::memory_order_relaxed);
                return false;
            }
        }

        // Liveness: any admitted frame is a heartbeat.
        if (peer.last_heard_ns != 0)
        {
            double const sample_us =
                static_cast<double>(now - peer.last_heard_ns) / 1000.0;
            peer.ewma_interarrival_us = peer.ewma_interarrival_us <= 0.0 ?
                sample_us :
                (1.0 - interarrival_gain) * peer.ewma_interarrival_us +
                    interarrival_gain * sample_us;
        }
        peer.last_heard_ns = now;
        peer.stalled_at_heard_ns = stalled_ns_.load(std::memory_order_relaxed);
        if (peer.status == peer_status::suspected)
        {
            peer.status = peer_status::alive;
            COAL_LOG_INFO("parcel",
                "peer %u heard from again: suspicion cleared", src);
        }
        update_link_locked(src, peer, now);
        // Destination-epoch rules.
        std::uint32_t const self =
            self_epoch_.load(std::memory_order_relaxed);
        if (hdr.dst_epoch != 0 && hdr.dst_epoch > self)
        {
            // A frame addressed PAST our incarnation: some peer declared
            // us dead and will only readmit a newer epoch.  Refuting means
            // adopting that epoch and fencing EVERY link — done outside
            // this (single-peer) lock by refute_self; the per-peer
            // link_epoch keeps racing sends consistent meanwhile.
            refute_epoch = hdr.dst_epoch;
        }
        else if (hdr.dst_epoch != 0 && hdr.dst_epoch < self)
        {
            // Addressed to a previous incarnation of THIS locality: the
            // payload, acks and credit all belong to state that died with
            // it — discard wholesale, and reply with an immediate
            // heartbeat so the sender learns the current epoch and fences
            // its side.
            counters_.stale_epoch_frames.fetch_add(
                1, std::memory_order_relaxed);
            if (!peer.ack_pending)
            {
                peer.ack_pending = true;
                acks_pending_.fetch_add(1, std::memory_order_release);
            }
            peer.ack_deadline_ns = now;    // emit on the next tick
            ring_.schedule(e, now);
            admit = false;
        }
    }

    if (rejoined)
    {
        trace::tracer::global().record(
            here_, trace::event_kind::peer_rejoined, src, rejoin_epoch);
        std::size_t const failed = fail_fenced(std::move(fenced));
        COAL_LOG_INFO("parcel",
            "peer %u rejoined as incarnation epoch %u (%zu parcels toward "
            "its previous incarnation failed)",
            src, rejoin_epoch, failed);
    }
    if (refute_epoch != 0)
        refute_self(refute_epoch, src);
    return admit;
}

void parcelhandler::refute_self(std::uint32_t new_epoch, std::uint32_t accuser)
{
    // Only the CAS winner sweeps; concurrent accusations of the same (or
    // a lower) epoch are already covered by the winner's fence pass.
    std::uint32_t cur = self_epoch_.load(std::memory_order_acquire);
    for (;;)
    {
        if (cur >= new_epoch)
            return;
        if (self_epoch_.compare_exchange_weak(
                cur, new_epoch, std::memory_order_acq_rel))
            break;
    }
    counters_.epoch_refutes.fetch_add(1, std::memory_order_relaxed);

    // Fence every link, one peer lock at a time — a virtual restart
    // without a stop-the-world lock.  A send interleaving with the sweep
    // stamps its link's OLD epoch (link_epoch) on the OLD stream, which
    // the receiver fences as a ghost; the new epoch only ever appears on
    // streams this sweep has already reset.
    std::size_t failed = 0;
    for (peer_entry& e : peers_)
    {
        fenced_state f;
        {
            std::lock_guard lock(e.lock);
            if (e.live)
                fence_peer_locked(e, *e.live, f);
        }
        if (!f.unacked.empty() || !f.deferred.empty())
            failed += fail_fenced(std::move(f));
    }
    COAL_LOG_WARN("parcel",
        "locality %u was falsely declared dead by peer %u: refuted by "
        "adopting incarnation epoch %u (virtual restart, %zu in-flight "
        "parcels failed)",
        here_, accuser, new_epoch, failed);
}

parcelhandler::health_snapshot parcelhandler::health() const
{
    health_snapshot s;
    s.known_peers = peers_.active();
    // Counted on read, one entry lock at a time: a counter read is rare,
    // and the coalescer's fast path reads degraded_links_ instead.
    for (peer_entry const& e : peers_)
    {
        std::lock_guard lock(e.lock);
        if (e.live && e.live->status == peer_status::suspected)
            ++s.suspected_peers;
    }
    s.dead_peers = dead_peers_.load(std::memory_order_relaxed);
    return s;
}

peer_status parcelhandler::peer_liveness(std::uint32_t dst) const
{
    peer_entry const& e = peers_[dst];
    std::lock_guard lock(e.lock);
    return e.live != nullptr ? e.live->status : peer_status::alive;
}

namespace {

    void fill_debug_locked(
        parcelhandler::peer_debug& d, peer_state const& peer)
    {
        d.known = true;
        d.status = peer.status;
        d.health = peer.health;
        d.epoch = peer.epoch;
        d.unacked_frames = peer.unacked.size();
        d.held_frames = peer.held.size();
        d.deferred_jobs = peer.deferred.size();
        d.unacked_bytes = peer.unacked_bytes;
        d.deferred_bytes = peer.deferred_bytes;
        d.next_seq = peer.next_seq;
        d.cum_received = peer.cum_received;
        if (!peer.unacked.empty())
            d.lowest_unacked_seq = peer.unacked.begin()->first;
        if (!peer.held.empty())
            d.lowest_held_seq = peer.held.begin()->first;
    }

}    // namespace

parcelhandler::peer_debug parcelhandler::debug_peer(std::uint32_t dst) const
{
    // An absent slot (never contacted, or crash-reset) reports unknown.
    peer_debug d;
    peer_entry const& e = peers_[dst];
    std::lock_guard lock(e.lock);
    if (e.live)
        fill_debug_locked(d, *e.live);
    return d;
}

std::vector<std::pair<std::uint32_t, parcelhandler::peer_debug>>
parcelhandler::debug_active_peers() const
{
    // One entry lock per peer: a slow diagnostic dump never stalls
    // senders behind a global lock (they only contend on their own peer).
    std::vector<std::pair<std::uint32_t, peer_debug>> out;
    for (peer_entry const& e : peers_)
    {
        std::lock_guard lock(e.lock);
        if (!e.live)
            continue;
        peer_debug d;
        fill_debug_locked(d, *e.live);
        out.emplace_back(e.id, d);
    }
    return out;
}

void parcelhandler::simulate_crash()
{
    bool expected = false;
    if (!crashed_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
        return;

    COAL_LOG_WARN("parcel", "locality %u: simulated crash of incarnation "
                            "epoch %u",
        here_, epoch());

    auto wait_idle = [this] {
        while (sends_in_progress_.load(std::memory_order_acquire) != 0 ||
            receives_in_progress_.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
    };

    std::vector<parcel> destroyed;
    std::vector<fenced_state> fenced_all;
    auto drain = [&] {
        // Queued-but-unsent messages die with the incarnation.
        while (auto job = outbound_.try_pop())
        {
            for (auto& p : job->parcels)
                destroyed.push_back(std::move(p));
        }
        // Undelivered inbound frames are lost memory of a dead process.
        while (auto msg = inbox_.try_pop())
        {
        }
        // Per-peer teardown, one entry lock at a time: the dead
        // incarnation's memory (streams, dedup windows, quarantines) must
        // not leak into the next one.  Ring registrations of reset
        // entries die on their next pop (!live).
        for (peer_entry& e : peers_)
        {
            std::lock_guard lock(e.lock);
            if (!e.live)
                continue;
            fenced_state f;
            fence_peer_locked(e, *e.live, f);
            if (!f.unacked.empty() || !f.deferred.empty())
                fenced_all.push_back(std::move(f));
            step_gauge(degraded_links_,
                e.live->health != link_health::healthy, false);
            if (e.live->status == peer_status::dead)
                dead_peers_.fetch_sub(1, std::memory_order_release);
            peers_.reset(e);
        }
    };

    // Two wait+drain rounds close the race with workers that passed
    // progress()'s crashed check before the flag landed: round one drains
    // the bulk, round two collects anything such a straggler registered.
    wait_idle();
    drain();
    wait_idle();
    drain();

    // Response callbacks of the dead incarnation can never complete.
    {
        std::lock_guard lock(responses_lock_);
        responses_.clear();
    }

    std::size_t failed = destroyed.size();
    fail_parcels(delivery_error::peer_failed, std::move(destroyed));
    for (auto& f : fenced_all)
        failed += fail_fenced(std::move(f));
    trace::tracer::global().record(
        here_, trace::event_kind::peer_failed, here_, failed);
    COAL_LOG_WARN("parcel",
        "locality %u crash: %zu outbound parcels destroyed (surfaced as "
        "peer_failed)",
        here_, failed);
}

void parcelhandler::restart_incarnation()
{
    // Bump the epoch BEFORE lifting the crash flag: no frame may ever
    // leave a restarted locality stamped with the dead incarnation.
    std::uint32_t const next =
        self_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    bool expected = true;
    if (!crashed_.compare_exchange_strong(
            expected, false, std::memory_order_acq_rel))
    {
        COAL_LOG_WARN("parcel",
            "locality %u: restart_incarnation without a preceding crash",
            here_);
    }
    COAL_LOG_INFO("parcel",
        "locality %u restarted as incarnation epoch %u", here_, next);
}

void parcelhandler::note_pressure_transition()
{
    auto const cur = static_cast<std::uint8_t>(current_pressure());
    std::uint8_t prev = last_pressure_.load(std::memory_order_relaxed);
    if (cur == prev ||
        !last_pressure_.compare_exchange_strong(
            prev, cur, std::memory_order_relaxed))
        return;
    counters_.pressure_transitions.fetch_add(1, std::memory_order_relaxed);
    trace::tracer::global().record(
        here_, trace::event_kind::pressure_changed, prev, cur);
    COAL_LOG_INFO("parcel", "locality %u pressure %s -> %s", here_,
        to_string(static_cast<pressure_state>(prev)),
        to_string(static_cast<pressure_state>(cur)));
}

bool parcelhandler::progress()
{
    if (stopped_.load(std::memory_order_acquire) ||
        crashed_.load(std::memory_order_acquire))
        return false;
    if (membership_.enabled)
    {
        // Stamp at most once per `grain` so workers calling this after
        // every task do not all write the shared line.  A call within
        // `grain` of the stamp may have gone unstamped, so only the gap
        // beyond `grain` is certainly stalled.
        std::int64_t const interval_ns =
            membership_.heartbeat_interval_us * 1000;
        std::int64_t const grain = interval_ns / 8;
        std::int64_t const now = now_ns();
        std::int64_t prev = last_progress_ns_.load(std::memory_order_relaxed);
        if (now - prev >= grain &&
            last_progress_ns_.compare_exchange_strong(
                prev, now, std::memory_order_relaxed))
        {
            std::int64_t const stall = now - prev - grain;
            if (prev != 0 && stall > interval_ns)
                stalled_ns_.fetch_add(stall, std::memory_order_relaxed);
        }
    }
    // Deadline flushes first, so their batches leave in this same call.
    bool const flushed = flush_due_handlers();
    bool const sent = progress_send();
    bool const received = progress_receive();
    bool pumped = false;
    if (reliability_.enabled)
    {
        // Deadline service is ring-driven: one drainer at a time visits
        // only the peers whose timers came due — amortized O(active)
        // instead of the old O(peers-ever-seen) full-map walks.
        pumped = ring_.drain(
            now_ns(), [this](peer_entry& e) { return service_peer(e); });
    }
    if (flow_.enabled)
        note_pressure_transition();
    return flushed || sent || received || pumped;
}

void parcelhandler::stop()
{
    bool expected = false;
    if (!stopped_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
        return;
    outbound_.close();
    inbox_.close();
    while (outbound_.try_pop())
    {
    }
    while (inbox_.try_pop())
    {
    }
}

}    // namespace coal::parcel
