/// \file counters_setup.cpp
/// Registers all built-in performance counter types with the runtime's
/// registry — including the counters the paper adds to HPX: Eq. 2
/// (/threads/time/average-overhead), Eq. 3 (/threads/background-work),
/// Eq. 4 (/threads/background-overhead) and the /coalescing/*@action
/// family — plus supporting counters for every layer of the stack.
///
/// Each counter is one table row {path, shape, source, help}.  The shape
/// fixes reset and aggregation semantics; the source is a struct member or,
/// for derived values only, a small lambda (DESIGN.md §3).  Instance
/// selection follows HPX: `{locality#N}` reads one locality, empty or
/// `{locality#*/total}` aggregates over all of them, and a locality this
/// process does not host yields no counter.

#include <coal/runtime/runtime.hpp>

#include <coal/core/coalescing_counters.hpp>
#include <coal/perf/counter.hpp>
#include <coal/perf/counter_path.hpp>
#include <coal/serialization/buffer_pool.hpp>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace coal {

namespace {

using perf::counter_path;
using perf::counter_ptr;
using perf::counter_value;
using cc = coalescing::coalescing_counters;

/// Scalar counter with reset-by-baseline semantics: reading with reset
/// (or reset()) re-zeroes the reported value without disturbing the
/// underlying monotonic source.
class baseline_counter final : public perf::counter
{
public:
    explicit baseline_counter(std::function<double()> read)
      : read_(std::move(read))
    {
    }

    counter_value value(bool reset) override
    {
        counter_value v;
        v.value = read_() - baseline_;
        v.valid = true;
        if (reset)
            baseline_ += v.value;
        return v;
    }

    void reset() override
    {
        baseline_ = read_();
    }

private:
    std::function<double()> read_;
    double baseline_ = 0.0;
};

/// Ratio counter whose reset re-baselines numerator and denominator, so a
/// post-reset read yields the ratio *for the interval since the reset* —
/// exactly what per-phase network-overhead measurements need (Fig. 9).
class ratio_counter final : public perf::counter
{
public:
    ratio_counter(
        std::function<double()> numerator, std::function<double()> denominator)
      : num_(std::move(numerator))
      , den_(std::move(denominator))
    {
    }

    counter_value value(bool reset) override
    {
        double const n = num_() - num_base_;
        double const d = den_() - den_base_;
        counter_value v;
        v.value = d > 0.0 ? n / d : 0.0;
        v.valid = true;
        if (reset)
            this->reset();
        return v;
    }

    void reset() override
    {
        num_base_ = num_();
        den_base_ = den_();
    }

private:
    std::function<double()> num_;
    std::function<double()> den_;
    double num_base_ = 0.0;
    double den_base_ = 0.0;
};

/// How a row is reset and folded over the selected items.
enum class shape
{
    cumulative,    ///< summed; reset re-baselines (baseline_counter)
    gauge,         ///< summed; no reset (function_counter)
    max,           ///< gauge folded with max instead of sum
    ratio,         ///< summed value / summed per, re-baselined on reset
    histogram,     ///< element-wise summed arrival histogram
};

/// Where a row's value comes from — exactly one member is set: a read of
/// each selected locality, a process-global read that ignores the
/// selection, or a read of each selected locality's @action counter block.
struct source
{
    std::function<double(locality&)> local = {};
    std::function<double()> global = {};
    std::function<double(cc const&)> action = {};
};

struct row
{
    char const* path;
    shape kind;
    source value;
    char const* help;
    source per = {};    ///< ratio denominator
};

/// Fold `read` over the selected items: the sum, or the max if `take_max`.
template <typename Item, typename Read>
std::function<double()> fold(
    std::vector<Item> const& items, Read const& read, bool take_max = false)
{
    return [items, read, take_max] {
        double total = 0.0;
        for (auto const& item : items)
        {
            double const v = read(*item);
            total = take_max ? std::max(total, v) : total + v;
        }
        return total;
    };
}

std::function<double()> fold(std::vector<locality*> const& selected,
    source const& s, bool take_max = false)
{
    return s.global ? s.global : fold(selected, s.local, take_max);
}

std::function<double()> fold(std::vector<std::shared_ptr<cc>> const& blocks,
    source const& s, bool take_max = false)
{
    return fold(blocks, s.action, take_max);
}

/// Element-wise sum of the blocks' arrival histograms (all blocks share
/// the default bucketing, including the 3-entry header); reset clears
/// every block's histogram.
counter_ptr histogram_counter(std::vector<std::shared_ptr<cc>> const& blocks)
{
    return std::make_shared<perf::array_function_counter>(
        [blocks] {
            std::vector<std::int64_t> total =
                blocks.front()->arrival_histogram();
            for (std::size_t i = 1; i < blocks.size(); ++i)
            {
                auto const h = blocks[i]->arrival_histogram();
                for (std::size_t j = 3; j < total.size() && j < h.size(); ++j)
                    total[j] += h[j];
            }
            return total;
        },
        [blocks] {
            for (auto const& b : blocks)
                b->reset_arrival_histogram();
        });
}

/// The counter class implementing `r`'s shape over the selected items.
template <typename Item>
counter_ptr make_counter(row const& r, std::vector<Item> const& items)
{
    auto value = fold(items, r.value, r.kind == shape::max);
    switch (r.kind)
    {
    case shape::cumulative:
        return std::make_shared<baseline_counter>(std::move(value));
    case shape::ratio:
        return std::make_shared<ratio_counter>(
            std::move(value), fold(items, r.per));
    default:    // gauge, max
        return std::make_shared<perf::function_counter>(std::move(value));
    }
}

}    // namespace

void runtime::register_counters()
{
    using enum shape;
    using C = parcel::parcelhandler_counters;
    using S = threading::scheduler_snapshot;
    using P = parcel::parcelhandler::peer_store_stats;
    using H = parcel::parcelhandler::health_snapshot;
    using B = serialization::buffer_pool_stats;
    using W = net::socket_wire_stats;
    using T = timing::timer_service_stats;
    using X = net::transport_stats;

    // The one instance selector: `{locality#N}` selects locality N if this
    // process hosts it and nullopt otherwise; any other instance selects
    // every hosted locality.
    auto select = [this](counter_path const& path)
        -> std::optional<std::vector<locality*>> {
        auto const loc = path.locality();
        if (loc && !hosts(*loc))
            return std::nullopt;
        std::vector<locality*> selected;
        for (auto const& l : localities_)
        {
            if (!loc || l->id().value() == *loc)
                selected.push_back(l.get());
        }
        return selected;
    };

    // Sources reading `member` of the struct `view(l)` returns for each
    // selected locality, or of the process-global struct `view()`.
    auto local = [](auto view) {
        return [view](auto member) {
            return source{[view, member](locality& l) {
                return static_cast<double>(view(l).*member);
            }};
        };
    };
    auto global = [](auto view) {
        return [view](auto member) {
            return source{{}, [view, member] {
                return static_cast<double>(view().*member);
            }};
        };
    };
    auto action = [](std::function<double(cc const&)> read) {
        return source{{}, {}, std::move(read)};
    };
    auto parcels = local(
        [](locality& l) -> C const& { return l.parcels().counters(); });
    auto threads = local([](locality& l) { return l.scheduler().snapshot(); });
    auto store = local([](locality& l) { return l.parcels().peer_stats(); });
    auto health = local([](locality& l) { return l.parcels().health(); });
    auto pool =
        global([] { return serialization::buffer_pool::global().stats(); });
    auto timer = global([this] { return timers_->stats(); });
    auto transport = global([this] { return transport_->stats(); });
    // Without a socket transport every wire counter reads 0, so the
    // catalogue is the same whatever the transport.
    auto wire = global([this] {
        return socket_transport_ != nullptr ? socket_transport_->wire_stats() :
                                              W{};
    });

    std::vector<row> const rows{
        {"/threads/count/cumulative", cumulative, threads(&S::tasks_executed),
            "number of executed tasks (HPX threads)"},
        {"/threads/time/func", cumulative, threads(&S::func_time_ns),
            "cumulative task duration Σt_func (Eq. 1), ns"},
        {"/threads/time/exec", cumulative, threads(&S::exec_time_ns),
            "cumulative useful execution time Σt_exec, ns"},
        {"/threads/background-work", cumulative,
            threads(&S::background_time_ns),
            "cumulative background-work duration (Eq. 3), ns"},
        {"/threads/time/idle-polls", cumulative, threads(&S::idle_poll_time_ns),
            "time spent in background polls that found no work, ns (excluded "
            "from Eq. 3/4)"},
        {"/threads/time/average-overhead", ratio, {[](locality& l) {
                auto const s = l.scheduler().snapshot();
                return static_cast<double>(s.func_time_ns - s.exec_time_ns);
            }},
            "average per-task management overhead (Eq. 2), ns/task",
            threads(&S::tasks_executed)},
        // Denominator includes background time: HPX runs background work as
        // HPX threads, so Σt_func subsumes it there (see
        // scheduler_snapshot::network_overhead()).
        {"/threads/background-overhead", ratio, threads(&S::background_time_ns),
            "network overhead n_oh = Σt_bg / Σt_func (Eq. 4), ratio",
            {[](locality& l) {
                auto const s = l.scheduler().snapshot();
                return static_cast<double>(
                    s.func_time_ns + s.background_time_ns);
            }}},
        // ---- parcel / message / data volume ----------------------------
        {"/parcels/count/sent", cumulative, parcels(&C::parcels_sent),
            "parcels handed to the parcel layer for remote delivery"},
        {"/parcels/count/received", cumulative, parcels(&C::parcels_received),
            "parcels decoded from incoming messages"},
        {"/parcels/count/routed-local", cumulative, parcels(&C::parcels_local),
            "parcels short-circuited to the local scheduler"},
        {"/messages/count/sent", cumulative, parcels(&C::messages_sent),
            "wire messages transmitted"},
        {"/messages/count/received", cumulative, parcels(&C::messages_received),
            "wire messages received"},
        {"/data/count/sent", cumulative, parcels(&C::bytes_sent),
            "bytes transmitted (message frames)"},
        {"/data/count/received", cumulative, parcels(&C::bytes_received),
            "bytes received (message frames)"},
        // ---- hierarchical (two-level) aggregation ----------------------
        {"/coal/hierarchy/relayed", cumulative, parcels(&C::parcels_relayed),
            "parcels received as a node relay and re-routed to their final "
            "destination"},
        {"/coal/hierarchy/fanned-out", cumulative,
            parcels(&C::parcels_fanned_out),
            "relayed parcels forwarded over intra-node links (the fan-out "
            "leg)"},
        {"/coal/hierarchy/relay-confirmed", cumulative,
            parcels(&C::parcels_relay_confirmed),
            "forwarded parcels acknowledged by their final destination (the "
            "completion half of the relay custody ledger)"},
        {"/coal/hierarchy/relay-failed", cumulative,
            parcels(&C::parcels_relay_failed),
            "forwarded parcels lost from relay custody (destination death, "
            "link down, or relay crash after confirming the origin)"},
        {"/coal/hierarchy/inter-node-messages", cumulative,
            parcels(&C::messages_inter_node),
            "wire messages sent across a node boundary (topology-classified)"},
        {"/coal/hierarchy/intra-node-messages", cumulative,
            parcels(&C::messages_intra_node),
            "wire messages sent within a node (topology-classified)"},
        // ---- reliability & fault injection (/net) ----------------------
        {"/net/count/drops", cumulative, transport(&X::messages_dropped),
            "messages lost by the transport (shutdown races, missing handlers, "
            "injected faults)"},
        {"/net/count/drops-injected", cumulative, transport(&X::drops_injected),
            "messages dropped by the fault plan"},
        {"/net/count/duplicates-injected", cumulative,
            transport(&X::duplicates_injected),
            "duplicate messages forged by the fault plan"},
        {"/net/count/retransmits", cumulative, parcels(&C::retransmits),
            "frames retransmitted by the reliability layer"},
        {"/net/count/fast-retransmits", cumulative,
            parcels(&C::fast_retransmits),
            "frames retransmitted early because later frames were selectively "
            "acked"},
        {"/net/count/duplicates-suppressed", cumulative,
            parcels(&C::duplicates_suppressed),
            "received frames discarded as duplicates by the reliability layer"},
        {"/net/count/acks", cumulative, parcels(&C::acks_sent),
            "standalone ack frames emitted"},
        {"/net/count/circuit-breaker-trips", cumulative,
            parcels(&C::circuit_breaker_trips),
            "times a per-link circuit breaker opened (coalescing bypassed)"},
        {"/net/time/average-ack-latency", ratio, {[](locality& l) {
                return static_cast<double>(
                           l.parcels().counters().ack_latency_ns.load()) /
                    1000.0;
            }},
            "mean time from first transmission to acknowledgement, µs",
            parcels(&C::acked_messages)},
        // ---- batched receive pipeline ----------------------------------
        {"/threads/receive-pipeline/count/drains", cumulative,
            parcels(&C::receive_drains),
            "progress_receive calls that drained at least one frame"},
        {"/threads/receive-pipeline/count/frames", cumulative,
            parcels(&C::frames_drained),
            "inbox frames consumed by budgeted receive drains"},
        {"/threads/receive-pipeline/count/chunks", cumulative,
            parcels(&C::chunk_tasks),
            "chunk tasks bulk-spawned by the receive pipeline"},
        {"/threads/receive-pipeline/frames-per-drain", ratio,
            parcels(&C::frames_drained),
            "average inbox frames consumed per draining progress_receive call",
            parcels(&C::receive_drains)},
        {"/threads/receive-pipeline/chunk-occupancy", ratio,
            parcels(&C::chunk_parcels),
            "average parcels carried per chunk task", parcels(&C::chunk_tasks)},
        {"/threads/receive-pipeline/time/offloaded-decode", cumulative,
            parcels(&C::decode_offload_ns),
            "argument-decode time moved off the background critical path onto "
            "executing workers, ns"},
        {"/net/count/duplicate-overhead-avoided", cumulative,
            parcels(&C::duplicate_overhead_avoided),
            "duplicate frames recognized from the frame prefix before the "
            "per-message receive overhead was paid"},
        // ---- socket parcelport (/net/wire) -----------------------------
        {"/net/wire/count/bytes-sent", cumulative, wire(&W::bytes_sent),
            "bytes written to sockets, frame headers included"},
        {"/net/wire/count/bytes-received", cumulative, wire(&W::bytes_received),
            "bytes read from sockets, frame headers included"},
        {"/net/wire/count/frames-sent", cumulative, wire(&W::frames_sent),
            "complete frames (data + control) written to sockets"},
        {"/net/wire/count/frames-received", cumulative,
            wire(&W::frames_received),
            "complete frames received and CRC-verified"},
        {"/net/wire/count/reconnects", cumulative, wire(&W::reconnects),
            "established connections lost and scheduled for reconnect"},
        {"/net/wire/count/connects", cumulative, wire(&W::connects),
            "successful outbound connects (incl. reconnects)"},
        {"/net/wire/count/accepts", cumulative, wire(&W::accepts),
            "inbound connections accepted"},
        {"/net/wire/count/partial-write-resumptions", cumulative,
            wire(&W::partial_write_resumptions),
            "frame writes resumed after a short write (socket buffer full)"},
        {"/net/wire/count/partial-read-resumptions", cumulative,
            wire(&W::partial_read_resumptions),
            "frame reads resumed after a partial frame arrived"},
        {"/net/wire/count/crc-drops", cumulative, wire(&W::crc_drops),
            "frames discarded for a payload CRC mismatch (never executed; "
            "recovered by retransmission)"},
        {"/net/wire/count/desync-drops", cumulative, wire(&W::desync_drops),
            "fatal stream decode errors (bad magic/version/header CRC) that "
            "cut the connection"},
        {"/net/wire/count/oversized-drops", cumulative,
            wire(&W::oversized_drops),
            "frames rejected for a length prefix above the frame cap"},
        {"/net/wire/count/truncated-drops", cumulative,
            wire(&W::truncated_drops),
            "partial frames discarded at connection end"},
        {"/net/wire/count/connect-failures", cumulative,
            wire(&W::connect_failures),
            "outbound connect attempts that failed (retried with backoff)"},
        {"/net/wire/count/accept-failures", cumulative,
            wire(&W::accept_failures),
            "accept() failures on listening sockets"},
        {"/net/wire/count/handshake-failures", cumulative,
            wire(&W::handshake_failures),
            "HELLO exchanges rejected (geometry or action-registry digest "
            "mismatch)"},
        {"/net/wire/count/backlog-drops", cumulative, wire(&W::backlog_drops),
            "frames shed at the per-connection outbound backlog cap"},
        // ---- flow control / overload protection (/net/flow) ------------
        {"/net/flow/count/shed", cumulative, parcels(&C::parcels_shed),
            "best-effort parcels shed by admission control under critical "
            "pressure"},
        {"/net/flow/count/deferrals", cumulative, parcels(&C::sends_deferred),
            "send jobs deferred on an exhausted credit window"},
        {"/net/flow/count/releases", cumulative, parcels(&C::sends_released),
            "deferred send jobs re-queued after the window opened"},
        {"/net/flow/count/credit-updates", cumulative,
            parcels(&C::credit_updates),
            "credit window grants applied from peer advertisements"},
        {"/net/flow/count/link-down", cumulative,
            parcels(&C::link_down_failures),
            "parcels failed with link_down (breaker open, in-flight cap "
            "exhausted)"},
        {"/net/flow/count/pressure-transitions", cumulative,
            parcels(&C::pressure_transitions),
            "process-level pressure state changes (ok/soft/critical)"},
        {"/net/flow/count/starvation-trips", cumulative,
            parcels(&C::starvation_trips),
            "circuit breakers opened by the credit-starvation slow-peer "
            "detector"},
        {"/net/flow/pressure", max, {[](locality& l) {
                return static_cast<double>(l.parcels().current_pressure());
            }},
            "current pressure state toward the worst peer (gauge: 0=ok, "
            "1=soft, 2=critical)"},
        // ---- membership / failure detection (/net/health) --------------
        {"/net/health/count/heartbeats", cumulative,
            parcels(&C::heartbeats_sent),
            "standalone liveness frames emitted on idle links (and dead-peer "
            "rejoin probes)"},
        {"/net/health/count/suspected", cumulative,
            parcels(&C::peers_suspected),
            "suspicion escalations (phi crossed suspect_phi)"},
        {"/net/health/count/deaths", cumulative,
            parcels(&C::peers_declared_dead),
            "peers declared dead by the phi-accrual failure detector"},
        {"/net/health/count/rejoins", cumulative, parcels(&C::peer_rejoins),
            "peers readmitted under a fresh incarnation epoch"},
        {"/net/health/count/stale-epoch-frames", cumulative,
            parcels(&C::stale_epoch_frames),
            "frames discarded because they belonged to a fenced incarnation "
            "(wrong src or dst epoch)"},
        {"/net/health/count/refutes", cumulative, parcels(&C::epoch_refutes),
            "false-positive deaths healed by epoch refutation (this locality "
            "adopted the higher epoch an accuser's dead-peer probe demanded)"},
        {"/net/health/count/confirmed-parcels", cumulative,
            parcels(&C::parcels_confirmed),
            "parcels whose frame the peer acknowledged (sender-side confirmed "
            "delivery)"},
        {"/net/health/known-peers", gauge, health(&H::known_peers),
            "peers with membership state at this locality (gauge)"},
        {"/net/health/suspected-peers", gauge, health(&H::suspected_peers),
            "peers currently under suspicion (gauge)"},
        {"/net/health/dead-peers", gauge, health(&H::dead_peers),
            "peers currently declared dead (gauge; rejoin clears)"},
        // ---- sharded peer store / idle eviction (/net/peers) -----------
        {"/net/peers/active", gauge, store(&P::active),
            "hydrated (resident) peer entries in the sharded store (gauge)"},
        {"/net/peers/evicted", gauge, store(&P::evicted),
            "idle peers demoted to compact tombstones (gauge)"},
        {"/net/peers/shard-max-occupancy", max, store(&P::shard_max_occupancy),
            "entries in the fullest shard (max across localities; hash-skew "
            "diagnostic)"},
        {"/net/peers/count/evictions", cumulative, store(&P::evictions),
            "idle peers demoted to tombstones by the clock-hand sweeper"},
        {"/net/peers/count/rehydrations", cumulative, store(&P::rehydrations),
            "tombstoned peers restored to full state on renewed contact"},
        // ---- delivery-failure taxonomy: one row per delivery_error -----
        {"/net/count/delivery-errors/shed-overload", cumulative,
            parcels(&C::parcels_shed),
            "parcels refused by admission control under critical pressure"},
        {"/net/count/delivery-errors/link-down", cumulative,
            parcels(&C::link_down_failures),
            "parcels failed because the link was down (breaker open, byte cap "
            "exhausted)"},
        {"/net/count/delivery-errors/peer-failed", cumulative,
            parcels(&C::peer_failed_failures),
            "parcels failed because the destination locality died (delivery "
            "not confirmed)"},
        // ---- buffer pool (process-global: every locality shares it) ----
        {"/coal/pool/count/hits", cumulative, pool(&B::hits),
            "slab acquires served from a pool free list"},
        {"/coal/pool/count/misses", cumulative, pool(&B::misses),
            "slab acquires that had to allocate"},
        {"/coal/pool/count/heap-fallbacks", cumulative,
            pool(&B::heap_fallbacks),
            "slab acquires above the top size class (plain heap, still "
            "refcounted)"},
        {"/coal/pool/count/flattens", cumulative, pool(&B::flattens),
            "wire-boundary gather copies (scatter-gather frames flattened for "
            "a contiguous transport)"},
        {"/coal/pool/count/outstanding", gauge, pool(&B::outstanding),
            "pooled slabs currently alive (gauge; free-listed slabs excluded)"},
        {"/coal/pool/data/copied", cumulative, {{}, [] {
                auto const s = serialization::buffer_pool::global().stats();
                return static_cast<double>(s.bytes_copied + s.bytes_flattened);
            }},
            "payload bytes moved by memcpy anywhere in the pipeline (inlined "
            "small payloads, archive growth, gathers)"},
        {"/coal/pool/data/referenced", cumulative, pool(&B::bytes_referenced),
            "payload bytes moved by bumping a slab refcount instead of "
            "copying"},
        {"/coal/pool/resident-bytes", gauge, pool(&B::resident_bytes),
            "payload bytes held by live slabs (gauge; watermark input)"},
        {"/coal/pool/resident-bytes-peak", gauge, pool(&B::resident_bytes_peak),
            "high-water mark of live slab payload bytes"},
        {"/coal/pool/fallback-bytes", gauge, pool(&B::fallback_bytes),
            "live heap-fallback payload bytes (gauge; capped allocation path)"},
        {"/coal/pool/fallback-bytes-peak", gauge, pool(&B::fallback_bytes_peak),
            "high-water mark of live heap-fallback payload bytes"},
        {"/coal/pool/count/fallback-cap-hits", cumulative,
            pool(&B::fallback_cap_hits),
            "capped acquires refused because live fallback bytes were at the "
            "configured cap"},
        // ---- flush-timer service ---------------------------------------
        {"/timers/count/scheduled", cumulative, timer(&T::scheduled),
            "flush timers scheduled"},
        {"/timers/count/fired", cumulative, timer(&T::fired),
            "flush timers fired"},
        {"/timers/count/cancelled", cumulative, timer(&T::cancelled),
            "flush timers cancelled before firing"},
        {"/timers/time/average-lateness", gauge, timer(&T::mean_lateness_us),
            "mean timer firing lateness, µs"},
        {"/timers/time/max-lateness", gauge, timer(&T::max_lateness_us),
            "worst timer firing lateness since start, µs"},
        {"/timers/count/pending", gauge, {{}, [this] {
                return static_cast<double>(timers_->pending());
            }},
            "flush timers currently armed (gauge)"},
        // ---- coalescing, per @action (the paper's §II-B additions) ---
        {"/coalescing/count/parcels", cumulative, action(&cc::parcels),
            "parcels routed through the coalescing handler of an action"},
        {"/coalescing/count/messages", cumulative, action(&cc::messages),
            "messages generated by the coalescing handler of an action"},
        {"/coalescing/count/average-parcels-per-message", ratio,
            action(&cc::parcels_in_messages),
            "average number of parcels per coalesced message of an action",
            action(&cc::messages)},
        {"/coalescing/time/average-parcel-arrival", ratio,
            action([](cc const& b) {
                return b.average_arrival_us() *
                    static_cast<double>(b.gap_count());
            }),
            "average time between parcel arrivals for an action, µs",
            action(&cc::gap_count)},
        {"/coalescing/time/parcel-arrival-histogram", histogram, {},
            "histogram of gaps between parcel arrivals for an action (min, "
            "max, bucket-width, counts...), µs"},
    };

    for (auto const& r : rows)
    {
        counters_.register_counter_type(r.path, r.help,
            [r, select](counter_path const& path) -> counter_ptr {
                auto const selected = select(path);
                if (!selected)
                    return nullptr;
                if (!r.value.action && r.kind != histogram)
                    return make_counter(r, *selected);
                // @action rows read the counter blocks of the selected
                // localities that coalesce that action.
                std::vector<std::shared_ptr<cc>> blocks;
                for (auto* l : *selected)
                {
                    if (auto b = l->coalescing().counters(path.parameters))
                        blocks.push_back(std::move(b));
                }
                if (blocks.empty())
                    return nullptr;
                return r.kind == histogram ? histogram_counter(blocks) :
                                             make_counter(r, blocks);
            });
    }
}

}    // namespace coal
