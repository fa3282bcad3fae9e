#include <coal/serialization/buffer_pool.hpp>

#include <algorithm>
#include <mutex>
#include <new>

namespace coal::serialization {

namespace detail {

void slab_add_ref(slab* s) noexcept
{
    if (s != nullptr)
        s->refs.fetch_add(1, std::memory_order_relaxed);
}

void slab_release(slab* s) noexcept
{
    if (s == nullptr)
        return;
    if (s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        s->pool->recycle(s);
}

namespace {

slab* allocate_slab(
    buffer_pool* pool, std::size_t capacity, std::uint32_t cls)
{
    void* raw = ::operator new(sizeof(slab) + capacity);
    auto* s = new (raw) slab;
    s->size_class = cls;
    s->capacity = capacity;
    s->pool = pool;
    return s;
}

void free_slab(slab* s) noexcept
{
    s->~slab();
    ::operator delete(static_cast<void*>(s));
}

}    // namespace

}    // namespace detail

buffer_pool::buffer_pool(std::size_t max_free_per_class)
  : max_free_per_class_(max_free_per_class)
{
}

buffer_pool::~buffer_pool()
{
    // Only cached (refcount 0) slabs belong to the pool here; any slab
    // still referenced by a live shared_buffer must not outlive the pool.
    // The global() instance is leaked so that can never happen for it.
    for (auto& cls : classes_)
    {
        for (detail::slab* s : cls.free)
            detail::free_slab(s);
    }
}

buffer_pool& buffer_pool::global()
{
    static buffer_pool* pool = new buffer_pool();
    return *pool;
}

detail::slab* buffer_pool::acquire(std::size_t min_bytes)
{
    return acquire_impl(min_bytes, /*capped=*/false);
}

detail::slab* buffer_pool::try_acquire(std::size_t min_bytes)
{
    return acquire_impl(min_bytes, /*capped=*/true);
}

detail::slab* buffer_pool::acquire_impl(std::size_t min_bytes, bool capped)
{
    std::size_t const cls = class_index(min_bytes);
    if (cls < num_classes)
    {
        std::size_t const capacity = class_capacity(cls);
        outstanding_.fetch_add(1, std::memory_order_relaxed);
        raise_peak(resident_bytes_peak_,
            resident_bytes_.fetch_add(capacity, std::memory_order_relaxed) +
                capacity);

        {
            std::lock_guard<spinlock> guard(classes_[cls].lock);
            if (!classes_[cls].free.empty())
            {
                detail::slab* s = classes_[cls].free.back();
                classes_[cls].free.pop_back();
                hits_.fetch_add(1, std::memory_order_relaxed);
                s->refs.store(1, std::memory_order_relaxed);
                return s;
            }
        }

        misses_.fetch_add(1, std::memory_order_relaxed);
        return detail::allocate_slab(
            this, capacity, static_cast<std::uint32_t>(cls));
    }

    // Larger than the top class: plain heap slab, recycled straight to
    // the heap on release.  `acquire` never fails; `try_acquire` enforces
    // the fallback byte cap here (the only unpooled, otherwise-unbounded
    // allocation path) and reports the refusal instead.
    std::uint64_t const fallback_after =
        fallback_bytes_.fetch_add(min_bytes, std::memory_order_relaxed) +
        min_bytes;
    if (capped)
    {
        std::uint64_t const cap = fallback_cap_.load(std::memory_order_relaxed);
        if (cap != 0 && fallback_after > cap)
        {
            fallback_bytes_.fetch_sub(min_bytes, std::memory_order_relaxed);
            fallback_cap_hits_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
    }
    raise_peak(fallback_bytes_peak_, fallback_after);
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    raise_peak(resident_bytes_peak_,
        resident_bytes_.fetch_add(min_bytes, std::memory_order_relaxed) +
            min_bytes);
    misses_.fetch_add(1, std::memory_order_relaxed);
    heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return detail::allocate_slab(this, min_bytes, heap_class);
}

void buffer_pool::recycle(detail::slab* s) noexcept
{
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(s->capacity, std::memory_order_relaxed);

    if (s->size_class != heap_class)
    {
        size_class_state& cls = classes_[s->size_class];
        std::size_t const limit = free_list_limit(s->size_class);
        std::lock_guard<spinlock> guard(cls.lock);
        if (cls.free.size() < limit)
        {
            cls.free.push_back(s);
            return;
        }
    }
    else
    {
        fallback_bytes_.fetch_sub(s->capacity, std::memory_order_relaxed);
    }
    detail::free_slab(s);
}

buffer_pool_stats buffer_pool::stats() const
{
    buffer_pool_stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.heap_fallbacks = heap_fallbacks_.load(std::memory_order_relaxed);
    std::int64_t const live = outstanding_.load(std::memory_order_relaxed);
    out.outstanding = live > 0 ? static_cast<std::uint64_t>(live) : 0;
    out.bytes_copied = bytes_copied_.load(std::memory_order_relaxed);
    out.bytes_referenced = bytes_referenced_.load(std::memory_order_relaxed);
    out.flattens = flattens_.load(std::memory_order_relaxed);
    out.bytes_flattened = bytes_flattened_.load(std::memory_order_relaxed);
    out.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
    out.resident_bytes_peak =
        resident_bytes_peak_.load(std::memory_order_relaxed);
    out.fallback_bytes = fallback_bytes_.load(std::memory_order_relaxed);
    out.fallback_bytes_peak =
        fallback_bytes_peak_.load(std::memory_order_relaxed);
    out.fallback_cap_hits = fallback_cap_hits_.load(std::memory_order_relaxed);
    return out;
}

std::size_t buffer_pool::cached() const
{
    std::size_t total = 0;
    for (auto const& cls : classes_)
    {
        std::lock_guard<spinlock> guard(cls.lock);
        total += cls.free.size();
    }
    return total;
}

}    // namespace coal::serialization
