#pragma once

/// \file buffer_pool.hpp
/// Thread-safe size-classed slab pool backing `shared_buffer`.
///
/// Every byte that travels through the parcel pipeline lives in a *slab*:
/// a single heap block holding an intrusive atomic reference count followed
/// by the payload storage.  Slabs are acquired from 49 size classes,
/// 256 B .. 1 MiB in quarter-power-of-two steps (256, 320, 384, 448, 512,
/// 640, ...), so a request above 256 B never pins more than 25 % slack and
/// the resident-byte watermarks count roughly what is really held.  The
/// class of a request is found in O(1) from its bit width.  When the last
/// reference to a slab drops, the slab returns to its class's capped free
/// list instead of the heap, so steady-state communication performs no
/// allocations at all.  Requests larger than the top class fall back to
/// plain heap slabs (the pool never fails); the fallback is counted so
/// benchmarks can see it.
///
/// The pool also owns the pipeline-wide copy accounting: layers report
/// payload bytes *copied* (memcpy into a frame or out of the wire) versus
/// *referenced* (moved by bumping a refcount), and the one permitted
/// gather-copy at the wire boundary (`wire_message::flatten`) is counted
/// separately.  The `/coal/pool/*` performance counters read these stats.
///
/// Memory-pressure watermarks: the pool tracks the bytes held by *live*
/// slabs (resident_bytes, free-listed slabs excluded) and the subset that
/// came from the counted heap-fallback path, and reports a three-state
/// `pressure()` signal against configurable soft/critical byte watermarks.
/// Admission control in the parcel layer consumes that signal, so the
/// pool itself never fails an `acquire()` — but it reports `critical`
/// slightly *below* the configured ceiling (one headroom's worth, default
/// critical/8) so upstream shedding stops growth before resident bytes
/// ever cross the watermark itself.  The heap-fallback path is capped the
/// same way: crossing `fallback_cap_bytes` forces `critical`, and
/// `try_acquire()` refuses (returns nullptr) instead of allocating an
/// over-cap fallback slab, for callers that can degrade.

#include <coal/common/pressure.hpp>
#include <coal/common/spinlock.hpp>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace coal::serialization {

class buffer_pool;

namespace detail {

/// Header of a pooled (or heap-fallback) allocation.  The payload bytes
/// live immediately after the header in the same allocation.
struct alignas(alignof(std::max_align_t)) slab
{
    std::atomic<std::uint64_t> refs{1};
    std::uint32_t size_class = 0;    ///< index into the pool's classes,
                                     ///< or buffer_pool::heap_class
    std::size_t capacity = 0;        ///< usable payload bytes
    buffer_pool* pool = nullptr;     ///< owner; null for heap fallback

    [[nodiscard]] std::uint8_t* data() noexcept
    {
        return reinterpret_cast<std::uint8_t*>(this) + sizeof(slab);
    }

    [[nodiscard]] std::uint8_t const* data() const noexcept
    {
        return reinterpret_cast<std::uint8_t const*>(this) + sizeof(slab);
    }
};

void slab_add_ref(slab* s) noexcept;

/// Drops one reference; at zero the slab is recycled into its pool's free
/// list (or freed, for heap-fallback slabs / full free lists).
void slab_release(slab* s) noexcept;

}    // namespace detail

/// Snapshot of the pool's monotonic counters plus the outstanding gauge.
struct buffer_pool_stats
{
    std::uint64_t hits = 0;              ///< acquires served from a free list
    std::uint64_t misses = 0;            ///< acquires that had to allocate
    std::uint64_t heap_fallbacks = 0;    ///< acquires above the top class
    std::uint64_t outstanding = 0;       ///< slabs currently alive (gauge)
    std::uint64_t bytes_copied = 0;      ///< payload bytes memcpy'd
    std::uint64_t bytes_referenced = 0;  ///< payload bytes shared by refcount
    std::uint64_t flattens = 0;          ///< wire-boundary gather copies
    std::uint64_t bytes_flattened = 0;   ///< bytes moved by those gathers
    // Memory-pressure watermarks (flow control):
    std::uint64_t resident_bytes = 0;    ///< bytes held by live slabs (gauge)
    std::uint64_t resident_bytes_peak = 0;    ///< high-water mark of the above
    std::uint64_t fallback_bytes = 0;    ///< live heap-fallback bytes (gauge)
    std::uint64_t fallback_bytes_peak = 0;    ///< high-water mark of the above
    std::uint64_t fallback_cap_hits = 0;      ///< try_acquire over-cap refusals
};

class buffer_pool
{
public:
    /// Size classes: 256 B .. 1 MiB in quarter-power-of-two steps.  Each
    /// octave [2^k, 2^(k+1)) holds 2^k × {1, 1.25, 1.5, 1.75}: twelve
    /// octaves from 256 B, plus the 1 MiB top class.
    static constexpr std::size_t num_classes = 49;
    static constexpr std::uint32_t heap_class = 0xffffffffu;

    /// Per-class free-list byte budget, in units of max_free_per_class: a
    /// class of capacity C caches at most
    /// max_free_per_class × min(1, free_list_span / C) slabs.  Small
    /// classes keep the full slab count; large ones share a byte budget,
    /// which keeps the worst-case cached bytes of all 49 classes
    /// (≤ max_free_per_class × Σ min(C, 56 KiB); 79.6 MiB at the default
    /// 64) below the 85.3 MiB of the former seven ×4 classes with 64
    /// slabs each.
    static constexpr std::size_t free_list_span = 56 * 1024;

    explicit buffer_pool(std::size_t max_free_per_class = 64);
    ~buffer_pool();

    buffer_pool(buffer_pool const&) = delete;
    buffer_pool& operator=(buffer_pool const&) = delete;

    /// The process-wide pool used by archives and wire messages.  Leaked
    /// on purpose: slabs may outlive every static destructor.
    static buffer_pool& global();

    [[nodiscard]] static constexpr std::size_t class_capacity(
        std::size_t cls) noexcept
    {
        return (4 + cls % 4) << (6 + cls / 4);
    }

    /// Index of the smallest class whose capacity is >= min_bytes, or
    /// num_classes when the request exceeds the top class.  O(1): above
    /// 256 B the bit width of (min_bytes - 1) picks the octave and its two
    /// bits below the leading one pick the quarter step.
    [[nodiscard]] static constexpr std::size_t class_index(
        std::size_t min_bytes) noexcept
    {
        if (min_bytes <= class_capacity(0))
            return 0;
        std::size_t const m = min_bytes - 1;
        std::size_t const shift =
            static_cast<std::size_t>(std::bit_width(m)) - 3;
        std::size_t const cls = 4 * shift + (m >> shift) - 27;
        return cls < num_classes ? cls : num_classes;
    }

    /// Most slabs the free list of class `cls` keeps (see free_list_span).
    [[nodiscard]] std::size_t free_list_limit(std::size_t cls) const noexcept
    {
        std::size_t const cap = class_capacity(cls);
        return cap <= free_list_span ?
            max_free_per_class_ :
            max_free_per_class_ * free_list_span / cap;
    }

    /// A slab with capacity >= min_bytes and refcount 1.  Never fails:
    /// oversized requests come from the heap (counted as a fallback).
    [[nodiscard]] detail::slab* acquire(std::size_t min_bytes);

    /// Like acquire(), but refuses (nullptr) when serving the request
    /// would need a heap-fallback slab that pushes live fallback bytes
    /// past the configured cap.  Pooled size classes always succeed.
    [[nodiscard]] detail::slab* try_acquire(std::size_t min_bytes);

    /// Configure the memory-pressure watermarks (bytes of *live* slab
    /// payload; 0 disables the respective threshold).  pressure() reports
    /// `soft` at soft_bytes, and `critical` one headroom (critical/8)
    /// *below* critical_bytes — so admission control that sheds on
    /// `critical` keeps resident bytes under the configured ceiling —
    /// or whenever live heap-fallback bytes reach fallback_cap_bytes.
    void set_watermarks(std::uint64_t soft_bytes, std::uint64_t critical_bytes,
        std::uint64_t fallback_cap_bytes) noexcept
    {
        soft_watermark_.store(soft_bytes, std::memory_order_relaxed);
        critical_watermark_.store(critical_bytes, std::memory_order_relaxed);
        fallback_cap_.store(fallback_cap_bytes, std::memory_order_relaxed);
    }

    /// Current memory-pressure state against the configured watermarks.
    /// A handful of relaxed atomic loads — cheap enough for per-parcel
    /// admission checks.
    [[nodiscard]] pressure_state pressure() const noexcept
    {
        std::uint64_t const critical =
            critical_watermark_.load(std::memory_order_relaxed);
        std::uint64_t const resident =
            resident_bytes_.load(std::memory_order_relaxed);
        if (critical != 0 && resident + critical / 8 >= critical)
            return pressure_state::critical;
        std::uint64_t const cap = fallback_cap_.load(std::memory_order_relaxed);
        if (cap != 0 &&
            fallback_bytes_.load(std::memory_order_relaxed) >= cap)
            return pressure_state::critical;
        std::uint64_t const soft =
            soft_watermark_.load(std::memory_order_relaxed);
        if (soft != 0 && resident >= soft)
            return pressure_state::soft;
        return pressure_state::ok;
    }

    [[nodiscard]] buffer_pool_stats stats() const;

    /// Slabs currently parked on free lists (test/introspection aid).
    [[nodiscard]] std::size_t cached() const;

    // -- pipeline copy accounting (layers call these at their seams) ------
    void count_copied(std::size_t bytes) noexcept
    {
        bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
    }

    void count_referenced(std::size_t bytes) noexcept
    {
        bytes_referenced_.fetch_add(bytes, std::memory_order_relaxed);
    }

    void count_flatten(std::size_t bytes) noexcept
    {
        flattens_.fetch_add(1, std::memory_order_relaxed);
        bytes_flattened_.fetch_add(bytes, std::memory_order_relaxed);
    }

private:
    friend void detail::slab_release(detail::slab*) noexcept;

    /// Called by slab_release when the refcount hits zero.
    void recycle(detail::slab* s) noexcept;

    struct size_class_state
    {
        mutable spinlock lock;
        std::vector<detail::slab*> free;
    };

    /// Shared body of acquire()/try_acquire(); `capped` refuses over-cap
    /// heap fallbacks instead of allocating them.
    [[nodiscard]] detail::slab* acquire_impl(std::size_t min_bytes, bool capped);

    /// Bump a relaxed high-water-mark atomic to at least `observed`.
    static void raise_peak(
        std::atomic<std::uint64_t>& peak, std::uint64_t observed) noexcept
    {
        std::uint64_t prev = peak.load(std::memory_order_relaxed);
        while (prev < observed &&
            !peak.compare_exchange_weak(
                prev, observed, std::memory_order_relaxed))
        {
        }
    }

    std::size_t max_free_per_class_;
    size_class_state classes_[num_classes];

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> heap_fallbacks_{0};
    std::atomic<std::int64_t> outstanding_{0};
    std::atomic<std::uint64_t> bytes_copied_{0};
    std::atomic<std::uint64_t> bytes_referenced_{0};
    std::atomic<std::uint64_t> flattens_{0};
    std::atomic<std::uint64_t> bytes_flattened_{0};
    // Watermark state (all byte figures cover *live* slabs only).
    std::atomic<std::uint64_t> resident_bytes_{0};
    std::atomic<std::uint64_t> resident_bytes_peak_{0};
    std::atomic<std::uint64_t> fallback_bytes_{0};
    std::atomic<std::uint64_t> fallback_bytes_peak_{0};
    std::atomic<std::uint64_t> fallback_cap_hits_{0};
    std::atomic<std::uint64_t> soft_watermark_{0};
    std::atomic<std::uint64_t> critical_watermark_{0};
    std::atomic<std::uint64_t> fallback_cap_{0};
};

}    // namespace coal::serialization
