#pragma once

/// \file locality.hpp
/// A locality — the abstraction of one physical node (§II-A).  Each
/// locality owns a scheduler (its "cores"), a parcelhandler (its NIC-side
/// software stack) and a coalescing registry; all localities of a runtime
/// share the AGAS instance, the simulated interconnect and the
/// performance-counter registry.
///
/// The user-facing remote-invocation API lives here:
///
///     auto f = here.async<get_cplx_action>(other);   // future<complex>
///     here.apply<ping_action>(other, 42);            // fire-and-forget

#include <coal/agas/address_space.hpp>
#include <coal/agas/gid.hpp>
#include <coal/core/coalescing_registry.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/component_action.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/serialization/archive.hpp>
#include <coal/threading/future.hpp>
#include <coal/threading/scheduler.hpp>

#include <cstdint>
#include <memory>
#include <vector>

namespace coal {

class runtime;

class locality
{
public:
    locality(runtime& rt, agas::locality_id id,
        threading::scheduler_config scheduler_config,
        net::transport& transport,
        parcel::reliability_params reliability = {},
        parcel::flow_params flow = {},
        parcel::membership_params membership = {});

    locality(locality const&) = delete;
    locality& operator=(locality const&) = delete;

    [[nodiscard]] agas::locality_id id() const noexcept
    {
        return id_;
    }

    [[nodiscard]] threading::scheduler& scheduler() noexcept
    {
        return *scheduler_;
    }

    [[nodiscard]] parcel::parcelhandler& parcels() noexcept
    {
        return *parcels_;
    }

    [[nodiscard]] coalescing::coalescing_registry& coalescing() noexcept
    {
        return *coalescing_;
    }

    /// All other localities (HPX's find_remote_localities()).
    [[nodiscard]] std::vector<agas::locality_id> find_remote_localities()
        const;

    /// Invoke Action on `dest` and get a future for its result.
    template <typename Action, typename... Args>
    auto async(agas::locality_id dest, Args&&... args)
        -> threading::future<typename Action::result_type>
    {
        using R = typename Action::result_type;
        Action::ensure_registered();

        threading::promise<R> promise;
        auto future = promise.get_future();

        parcel::parcel p;
        p.dest = dest.value();
        p.action = Action::id();
        p.arguments = Action::make_arguments(std::forward<Args>(args)...);
        p.continuation = parcels_->register_response_callback(
            [pr = std::move(promise)](
                serialization::shared_buffer&& payload) mutable {
                if constexpr (std::is_void_v<R>)
                {
                    (void) payload;
                    pr.set_value();
                }
                else
                {
                    pr.set_value(serialization::from_bytes<R>(payload));
                }
            });

        parcels_->put_parcel(std::move(p));
        return future;
    }

    /// Invoke Action on `dest` without waiting for a result.
    template <typename Action, typename... Args>
    void apply(agas::locality_id dest, Args&&... args)
    {
        Action::ensure_registered();

        parcel::parcel p;
        p.dest = dest.value();
        p.action = Action::id();
        p.arguments = Action::make_arguments(std::forward<Args>(args)...);
        parcels_->put_parcel(std::move(p));
    }

    /// Invoke a component Action on the object named by `target`; AGAS
    /// resolves the gid to its current owner (migration-transparent).
    template <typename Action, typename... Args>
        requires(Action::is_component_action)
    auto async(agas::gid target, Args&&... args)
        -> threading::future<typename Action::result_type>
    {
        using R = typename Action::result_type;
        Action::ensure_registered();

        threading::promise<R> promise;
        auto future = promise.get_future();

        parcel::parcel p;
        p.dest = resolve_component_owner(target).value();
        p.action = Action::id();
        p.arguments =
            Action::make_arguments(target, std::forward<Args>(args)...);
        p.continuation = parcels_->register_response_callback(
            [pr = std::move(promise)](
                serialization::shared_buffer&& payload) mutable {
                if constexpr (std::is_void_v<R>)
                {
                    (void) payload;
                    pr.set_value();
                }
                else
                {
                    pr.set_value(serialization::from_bytes<R>(payload));
                }
            });

        parcels_->put_parcel(std::move(p));
        return future;
    }

    /// Fire-and-forget component invocation.
    template <typename Action, typename... Args>
        requires(Action::is_component_action)
    void apply(agas::gid target, Args&&... args)
    {
        Action::ensure_registered();

        parcel::parcel p;
        p.dest = resolve_component_owner(target).value();
        p.action = Action::id();
        p.arguments =
            Action::make_arguments(target, std::forward<Args>(args)...);
        parcels_->put_parcel(std::move(p));
    }

    /// Convenience: spawn a local task.
    void post(threading::task_type task)
    {
        scheduler_->post(std::move(task));
    }

private:
    /// Current owner of a component gid; asserts on unknown gids.
    [[nodiscard]] agas::locality_id resolve_component_owner(
        agas::gid target) const;

    runtime& runtime_;
    agas::locality_id id_;
    std::unique_ptr<threading::scheduler> scheduler_;
    std::unique_ptr<parcel::parcelhandler> parcels_;
    std::unique_ptr<coalescing::coalescing_registry> coalescing_;
};

}    // namespace coal
