#include <coal/core/coalescing_registry.hpp>

#include <coal/common/logging.hpp>
#include <coal/parcel/action_registry.hpp>

namespace coal::coalescing {

coalescing_registry::coalescing_registry(parcel::parcelhandler& parcels)
  : parcels_(parcels)
{
}

bool coalescing_registry::enable(std::string const& action_name,
    coalescing_params params, bool include_responses)
{
    auto const* action =
        parcel::action_registry::instance().find_by_name(action_name);
    if (action == nullptr)
    {
        COAL_LOG_WARN("coalescing",
            "cannot enable coalescing: unknown action '%s'",
            action_name.c_str());
        return false;
    }

    std::lock_guard lock(mutex_);
    auto& entry = entries_[action_name];

    if (entry.params == nullptr)
    {
        entry.params = std::make_shared<shared_params>(params);
        entry.counters = std::make_shared<coalescing_counters>();
    }
    else
    {
        entry.params->set(params);
    }

    if (entry.request_handler == nullptr)
    {
        entry.request_handler = std::make_shared<coalescing_message_handler>(
            action_name, parcels_, entry.params, entry.counters);
        parcels_.set_message_handler(action->id, entry.request_handler);
    }

    if (include_responses && entry.response_handler == nullptr)
    {
        entry.response_handler = std::make_shared<coalescing_message_handler>(
            action_name + "::response", parcels_, entry.params,
            entry.counters);
        parcels_.set_message_handler(
            parcel::make_response_id(action->id), entry.response_handler);
    }
    return true;
}

bool coalescing_registry::disable(std::string const& action_name)
{
    auto const* action =
        parcel::action_registry::instance().find_by_name(action_name);

    std::lock_guard lock(mutex_);
    auto it = entries_.find(action_name);
    if (it == entries_.end())
        return false;

    auto& entry = it->second;
    if (entry.request_handler)
    {
        entry.request_handler->flush();
        if (action != nullptr)
            parcels_.set_message_handler(action->id, nullptr);
        entry.request_handler.reset();
    }
    if (entry.response_handler)
    {
        entry.response_handler->flush();
        if (action != nullptr)
            parcels_.set_message_handler(
                parcel::make_response_id(action->id), nullptr);
        entry.response_handler.reset();
    }
    // Keep params + counters so post-run analysis can still read them.
    return true;
}

bool coalescing_registry::set_params(
    std::string const& action_name, coalescing_params params)
{
    std::lock_guard lock(mutex_);
    auto it = entries_.find(action_name);
    if (it == entries_.end() || it->second.params == nullptr)
        return false;
    it->second.params->set(params);
    return true;
}

std::optional<coalescing_params> coalescing_registry::params(
    std::string const& action_name) const
{
    std::lock_guard lock(mutex_);
    auto it = entries_.find(action_name);
    if (it == entries_.end() || it->second.params == nullptr)
        return std::nullopt;
    return it->second.params->get();
}

std::shared_ptr<coalescing_counters> coalescing_registry::counters(
    std::string const& action_name) const
{
    std::lock_guard lock(mutex_);
    auto it = entries_.find(action_name);
    if (it == entries_.end())
        return nullptr;
    return it->second.counters;
}

std::shared_ptr<coalescing_message_handler> coalescing_registry::handler(
    std::string const& action_name) const
{
    std::lock_guard lock(mutex_);
    auto it = entries_.find(action_name);
    if (it == entries_.end())
        return nullptr;
    return it->second.request_handler;
}

void coalescing_registry::flush_all()
{
    std::vector<std::shared_ptr<coalescing_message_handler>> handlers;
    {
        std::lock_guard lock(mutex_);
        for (auto const& [name, entry] : entries_)
        {
            if (entry.request_handler)
                handlers.push_back(entry.request_handler);
            if (entry.response_handler)
                handlers.push_back(entry.response_handler);
        }
    }
    for (auto const& h : handlers)
        h->flush();
}

std::vector<parcel::parcel> coalescing_registry::purge_all()
{
    std::vector<std::shared_ptr<coalescing_message_handler>> handlers;
    {
        std::lock_guard lock(mutex_);
        for (auto const& [name, entry] : entries_)
        {
            if (entry.request_handler)
                handlers.push_back(entry.request_handler);
            if (entry.response_handler)
                handlers.push_back(entry.response_handler);
        }
    }
    std::vector<parcel::parcel> purged;
    for (auto const& h : handlers)
    {
        auto batch = h->purge();
        for (auto& p : batch)
            purged.push_back(std::move(p));
    }
    return purged;
}

std::size_t coalescing_registry::queued_parcels() const
{
    std::vector<std::shared_ptr<coalescing_message_handler>> handlers;
    {
        std::lock_guard lock(mutex_);
        for (auto const& [name, entry] : entries_)
        {
            if (entry.request_handler)
                handlers.push_back(entry.request_handler);
            if (entry.response_handler)
                handlers.push_back(entry.response_handler);
        }
    }
    std::size_t total = 0;
    for (auto const& h : handlers)
        total += h->queued_parcels();
    return total;
}

std::vector<std::string> coalescing_registry::coalesced_actions() const
{
    std::lock_guard lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (auto const& [name, entry] : entries_)
    {
        if (entry.request_handler != nullptr)
            names.push_back(name);
    }
    return names;
}

}    // namespace coal::coalescing
