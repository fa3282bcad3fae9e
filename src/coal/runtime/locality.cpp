#include <coal/runtime/locality.hpp>

#include <coal/common/assert.hpp>
#include <coal/runtime/runtime.hpp>

namespace coal {

locality::locality(runtime& rt, agas::locality_id id,
    threading::scheduler_config scheduler_config, net::transport& transport,
    parcel::reliability_params reliability, parcel::flow_params flow,
    parcel::membership_params membership)
  : runtime_(rt)
  , id_(id)
  , scheduler_(std::make_unique<threading::scheduler>(scheduler_config))
  , parcels_(std::make_unique<parcel::parcelhandler>(
        id.value(), transport, *scheduler_, reliability, flow, membership))
  , coalescing_(std::make_unique<coalescing::coalescing_registry>(*parcels_))
{
}

std::vector<agas::locality_id> locality::find_remote_localities() const
{
    return runtime_.agas().remote_localities(id_);
}

agas::locality_id locality::resolve_component_owner(agas::gid target) const
{
    auto const owner = runtime_.agas().resolve(target);
    COAL_ASSERT_MSG(owner.has_value(),
        "component gid does not resolve to any locality");
    return *owner;
}

}    // namespace coal
