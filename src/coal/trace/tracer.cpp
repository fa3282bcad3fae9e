#include <coal/trace/tracer.hpp>

#include <coal/common/stopwatch.hpp>

#include <algorithm>
#include <bit>
#include <cstdio>

namespace coal::trace {

tracer& tracer::global()
{
    static tracer instance;
    return instance;
}

void tracer::enable(std::size_t capacity)
{
    disable();
    capacity_ = std::bit_ceil(std::max<std::size_t>(capacity, 16));
    ring_ = std::make_unique<event[]>(capacity_);
    next_.store(0, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
}

void tracer::disable()
{
    enabled_.store(false, std::memory_order_release);
}

void tracer::record(std::uint32_t locality, event_kind kind, std::uint64_t a,
    std::uint64_t b) noexcept
{
    if (!enabled_.load(std::memory_order_relaxed))
        return;

    std::uint64_t const index =
        next_.fetch_add(1, std::memory_order_relaxed);
    event& slot = ring_[index & (capacity_ - 1)];
    slot.timestamp_ns = now_ns();
    slot.locality = locality;
    slot.kind = kind;
    slot.a = a;
    slot.b = b;
}

std::vector<event> tracer::snapshot() const
{
    std::vector<event> out;
    if (ring_ == nullptr)
        return out;

    std::uint64_t const end = next_.load(std::memory_order_acquire);
    std::uint64_t const begin =
        end > capacity_ ? end - capacity_ : 0;
    out.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t i = begin; i != end; ++i)
        out.push_back(ring_[i & (capacity_ - 1)]);

    // Concurrent writers may have raced the copy near the tail; keep the
    // timestamp order coherent for consumers.
    std::stable_sort(out.begin(), out.end(),
        [](event const& x, event const& y) {
            return x.timestamp_ns < y.timestamp_ns;
        });
    return out;
}

std::uint64_t tracer::dropped() const noexcept
{
    std::uint64_t const total = next_.load(std::memory_order_relaxed);
    return total > capacity_ ? total - capacity_ : 0;
}

char const* to_string(event_kind kind) noexcept
{
    switch (kind)
    {
    case event_kind::parcel_put:
        return "parcel-put";
    case event_kind::parcel_local:
        return "parcel-local";
    case event_kind::parcel_executed:
        return "parcel-executed";
    case event_kind::coalescing_queued:
        return "coalescing-queued";
    case event_kind::coalescing_bypass:
        return "coalescing-bypass";
    case event_kind::flush_size:
        return "flush-size";
    case event_kind::flush_timeout:
        return "flush-timeout";
    case event_kind::flush_idle:
        return "flush-idle";
    case event_kind::flush_forced:
        return "flush-forced";
    case event_kind::message_sent:
        return "message-sent";
    case event_kind::message_received:
        return "message-received";
    case event_kind::pressure_changed:
        return "pressure-changed";
    case event_kind::parcel_shed:
        return "parcel-shed";
    case event_kind::send_deferred:
        return "send-deferred";
    case event_kind::link_down:
        return "link-down";
    case event_kind::peer_suspected:
        return "peer-suspected";
    case event_kind::peer_failed:
        return "peer-failed";
    case event_kind::peer_rejoined:
        return "peer-rejoined";
    }
    return "?";
}

std::string format_event(event const& e)
{
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
        "[%12lld ns] L%u %-18s a=%llx b=%llu",
        static_cast<long long>(e.timestamp_ns), e.locality,
        to_string(e.kind), static_cast<unsigned long long>(e.a),
        static_cast<unsigned long long>(e.b));
    return buffer;
}

}    // namespace coal::trace
