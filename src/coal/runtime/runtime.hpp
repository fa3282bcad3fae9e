#pragma once

/// \file runtime.hpp
/// The distributed runtime: boots L in-process localities connected by
/// the simulated interconnect, applies coalescing defaults, registers
/// performance counters, and provides SPMD execution, barriers, quiesce
/// and clean shutdown.
///
///     coal::runtime_config cfg;
///     cfg.num_localities = 2;
///     coal::runtime rt(cfg);
///     rt.run_everywhere([](coal::locality& here) { ... });
///     rt.stop();

#include <coal/agas/address_space.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/sim_network.hpp>
#include <coal/net/socket_transport.hpp>
#include <coal/net/transport.hpp>
#include <coal/perf/registry.hpp>
#include <coal/runtime/locality.hpp>
#include <coal/threading/instrumentation.hpp>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace coal {

struct runtime_config
{
    std::uint32_t num_localities = 2;
    unsigned workers_per_locality = 1;

    /// Interconnect cost model (used by the "sim" transport).
    net::cost_model network{};

    /// Wire selection: "sim" (default; the cost-model interconnect),
    /// "loopback" (zero-cost synchronous delivery for timing-independent
    /// unit tests), or "tcp" / "uds" for the real socket parcelport.  Any
    /// other value asserts.  The env var COAL_TRANSPORT=tcp|uds overrides
    /// a default-"sim" config (ignored for very large locality counts),
    /// which is how existing suites re-run over real sockets unmodified.
    std::string transport = "sim";

    /// Refuse the COAL_TRANSPORT override: tests that assert simulated
    /// cost-model semantics (or the absence of a wire) set this.
    bool pin_transport = false;

    /// Socket parcelport tunables (endpoints, frame cap, backoff...).
    /// `kind` and `registry_digest` are filled in by the runtime.
    net::socket_params socket{};

    /// Multi-process SPMD: this process hosts localities
    /// [first_local_rank, first_local_rank + num_local_ranks).  The
    /// default num_local_ranks == 0 hosts all of them (single process).
    /// Requires a socket transport with explicit per-locality endpoints.
    std::uint32_t first_local_rank = 0;
    std::uint32_t num_local_ranks = 0;

    /// Apply COAL_ACTION_USES_MESSAGE_COALESCING opt-ins at startup.
    bool apply_coalescing_defaults = true;

    /// Install sibling handlers on response actions (DESIGN.md §2).
    bool coalesce_responses = true;

    /// Fault injection: when the plan is active the transport is wrapped
    /// in a faulty_transport and the reliability layer is forced on.
    net::fault_plan faults{};

    /// Ack/retransmit protocol tunables.  `enabled` is implied by an
    /// active fault plan but can also be set on its own (e.g. to measure
    /// the reliability overhead on a lossless link).
    parcel::reliability_params reliability{};

    /// Flow control / overload protection tunables.  Enabling forces the
    /// reliability layer on (credits travel in the ack fields) and applies
    /// the pool watermarks to the global buffer pool at startup.
    parcel::flow_params flow{};

    /// Peer-liveness / epoched-membership layer (heartbeats, phi-accrual
    /// failure detection, crash fencing and rejoin).  Enabling forces the
    /// reliability layer on — epochs and heartbeats ride the frame
    /// prefix.  See membership.hpp and DESIGN.md "Failure model".
    parcel::membership_params membership{};
};

class runtime
{
public:
    explicit runtime(runtime_config config = {});
    ~runtime();

    runtime(runtime const&) = delete;
    runtime& operator=(runtime const&) = delete;

    [[nodiscard]] runtime_config const& config() const noexcept
    {
        return config_;
    }

    [[nodiscard]] std::uint32_t num_localities() const noexcept
    {
        return config_.num_localities;
    }

    /// True when this process hosts locality `id` (always true in the
    /// default single-process mode).
    [[nodiscard]] bool hosts(std::uint32_t id) const noexcept
    {
        return id >= first_rank_ && id < first_rank_ + local_count_;
    }

    [[nodiscard]] std::uint32_t first_local_rank() const noexcept
    {
        return first_rank_;
    }

    [[nodiscard]] std::uint32_t num_local_ranks() const noexcept
    {
        return local_count_;
    }

    /// The socket parcelport when transport is tcp/uds, else nullptr
    /// (counters and tests reach wire stats through this).
    [[nodiscard]] net::socket_transport* wire() noexcept
    {
        return socket_transport_;
    }

    /// A locality hosted by this process (asserts hosts(index)).
    [[nodiscard]] locality& get_locality(std::uint32_t index);
    [[nodiscard]] locality& get_locality(agas::locality_id id)
    {
        return get_locality(id.value());
    }

    [[nodiscard]] agas::address_space& agas() noexcept
    {
        return *agas_;
    }

    [[nodiscard]] net::transport& network() noexcept
    {
        return *transport_;
    }

    [[nodiscard]] perf::counter_registry& counters() noexcept
    {
        return counters_;
    }

    /// Create a component instance hosted at `owner` and register it in
    /// AGAS; the returned gid addresses it from any locality (and keeps
    /// working across agas().migrate()).
    template <typename Component, typename... Args>
    agas::gid new_component(agas::locality_id owner, Args&&... args)
    {
        return agas_->bind(owner,
            std::make_shared<Component>(std::forward<Args>(args)...));
    }

    /// Enable coalescing for an action on every locality.
    bool enable_coalescing(std::string const& action_name,
        coalescing::coalescing_params params);

    /// Live-update coalescing parameters on every locality.
    bool set_coalescing_params(std::string const& action_name,
        coalescing::coalescing_params params);

    /// SPMD: run `fn(locality)` as a task on every locality, wait for all
    /// to return.  Must be called from a non-worker thread.
    void run_everywhere(std::function<void(locality&)> fn);

    /// Run `fn(locality)` as a task on one locality and wait.
    void run_on(std::uint32_t index, std::function<void(locality&)> fn);

    /// SPMD barrier callable from inside run_everywhere tasks; waiting
    /// tasks keep their scheduler's background work running.
    void barrier();

    /// Chaos API: hard-kill a locality.  Its transport endpoints go dark
    /// (in-flight frames to/from it are dropped), its parcel layer is
    /// crashed — every queued / deferred / retransmit-held parcel fails
    /// through the delivery-error handler as `peer_failed` — and its
    /// coalescing queues are purged into the same accounting.  Survivors
    /// detect the death via the failure detector and fence their own
    /// state toward it.  Requires `membership.enabled`.
    void kill_locality(std::uint32_t index);

    /// Chaos API: bring a killed locality back under a fresh incarnation
    /// epoch.  Peers readmit it on first contact (or on a dead-peer probe
    /// reply) and coalescing toward it resumes.
    void restart_locality(std::uint32_t index);

    /// Flush all coalescing queues and wait until no parcel, message or
    /// task is in flight anywhere.  Localities currently killed by
    /// kill_locality() are skipped — their queues are frozen until
    /// restart.
    void quiesce();

    /// Quiesce, then shut everything down.  Idempotent.
    void stop();

    /// Sum of all localities' scheduler snapshots (Eq. 1–4 inputs).
    [[nodiscard]] threading::scheduler_snapshot aggregate_snapshot() const;

private:
    void register_counters();

    /// Sense-reversing barrier whose waiters help-run their scheduler.
    struct help_barrier
    {
        explicit help_barrier(std::uint32_t n)
          : participants(n)
        {
        }

        void arrive_and_wait();

        std::uint32_t participants;
        std::atomic<std::uint32_t> arrived{0};
        std::atomic<std::uint64_t> generation{0};
    };

    runtime_config config_;
    std::uint32_t first_rank_ = 0;
    std::uint32_t local_count_ = 0;
    bool multiproc_ = false;
    std::unique_ptr<agas::address_space> agas_;
    std::unique_ptr<net::transport> transport_;
    net::socket_transport* socket_transport_ = nullptr;    ///< borrowed

    /// Multi-process barrier: per-round ticket election (the round's
    /// first local arriver runs the wire barrier, the rest help-run
    /// until it completes).
    std::atomic<std::uint64_t> barrier_ticket_{0};
    std::atomic<std::uint64_t> wire_barrier_round_{0};
    perf::counter_registry counters_;
    std::vector<std::unique_ptr<locality>> localities_;
    std::unique_ptr<help_barrier> barrier_;
    std::atomic<bool> stopped_{false};
};

}    // namespace coal
