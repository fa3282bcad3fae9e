#pragma once

/// \file coalescing_registry.hpp
/// Per-locality registry of coalescing handlers.
///
/// Enabling coalescing for an action installs a handler for the action's
/// request id and, by default, a *sibling* handler for its response id —
/// both share one parameter cell, so tuning `nparcels` tunes the whole
/// round trip (see DESIGN.md §2 on why responses must coalesce for the
/// toy app's gains to match the paper's shape).  Parameters can be
/// changed live (Fig. 9's per-phase schedule relies on this).

#include <coal/core/coalescing_message_handler.hpp>
#include <coal/core/coalescing_params.hpp>
#include <coal/parcel/parcelhandler.hpp>

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace coal::coalescing {

class coalescing_registry
{
public:
    explicit coalescing_registry(parcel::parcelhandler& parcels);

    /// Enable coalescing for a registered action (by name).
    /// \param include_responses install a sibling handler on the response
    ///        id, sharing parameters, so result parcels coalesce too.
    /// \returns false if the action name is unknown.
    bool enable(std::string const& action_name, coalescing_params params,
        bool include_responses = true);

    /// Remove the handlers; queued parcels are flushed first.
    bool disable(std::string const& action_name);

    /// Live-update parameters; false if coalescing is not enabled.
    bool set_params(std::string const& action_name, coalescing_params params);

    [[nodiscard]] std::optional<coalescing_params> params(
        std::string const& action_name) const;

    /// Counters for an action (valid as long as the registry lives, even
    /// after disable()).  nullptr when never enabled.
    [[nodiscard]] std::shared_ptr<coalescing_counters> counters(
        std::string const& action_name) const;

    [[nodiscard]] std::shared_ptr<coalescing_message_handler> handler(
        std::string const& action_name) const;

    /// Flush every handler's queues (phase boundaries, quiesce).
    void flush_all();

    /// Chaos hook: drop every queued parcel across all handlers without
    /// sending, returning them for delivery-error accounting.  Used by
    /// runtime::kill_locality to model coalescing queues dying with a
    /// crashed incarnation.
    [[nodiscard]] std::vector<parcel::parcel> purge_all();

    /// Total parcels currently held back across all handlers.
    [[nodiscard]] std::size_t queued_parcels() const;

    [[nodiscard]] std::vector<std::string> coalesced_actions() const;

private:
    struct action_entry
    {
        shared_params_ptr params;
        std::shared_ptr<coalescing_counters> counters;
        std::shared_ptr<coalescing_message_handler> request_handler;
        std::shared_ptr<coalescing_message_handler> response_handler;
    };

    parcel::parcelhandler& parcels_;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, action_entry> entries_;
};

}    // namespace coal::coalescing
