// Slab pool mechanics: size classing, free-list reuse, the outstanding
// gauge, heap fallback for oversized requests, and refcounted lifetime of
// buffers that outlive heavy pool churn (the retransmission-table case).

#include <coal/serialization/archive.hpp>
#include <coal/serialization/buffer.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/serialization/wire_message.hpp>

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace {

using coal::serialization::buffer_pool;
using coal::serialization::byte_buffer;
using coal::serialization::shared_buffer;
using coal::serialization::wire_message;
using coal::serialization::detail::slab;
using coal::serialization::detail::slab_release;

TEST(BufferPool, SizeClassesAreGeometric)
{
    EXPECT_EQ(buffer_pool::class_capacity(0), 256u);
    EXPECT_EQ(buffer_pool::class_capacity(1), 320u);
    EXPECT_EQ(buffer_pool::class_capacity(2), 384u);
    EXPECT_EQ(buffer_pool::class_capacity(3), 448u);
    EXPECT_EQ(buffer_pool::class_capacity(4), 512u);
    EXPECT_EQ(buffer_pool::class_capacity(5), 640u);
    EXPECT_EQ(
        buffer_pool::class_capacity(buffer_pool::num_classes - 1), 1u << 20);
    // Quarter steps: every octave doubles in four classes.
    for (std::size_t cls = 4; cls != buffer_pool::num_classes; ++cls)
        EXPECT_EQ(buffer_pool::class_capacity(cls),
            2 * buffer_pool::class_capacity(cls - 4));
}

TEST(BufferPool, AcquireRoundsUpToClassCapacity)
{
    buffer_pool pool;
    slab* a = pool.acquire(1);
    slab* b = pool.acquire(257);
    EXPECT_EQ(a->capacity, 256u);
    EXPECT_EQ(b->capacity, 320u);
    EXPECT_EQ(a->refs.load(), 1u);
    slab_release(a);
    slab_release(b);
}

TEST(BufferPool, ReleaseRecyclesIntoFreeListAndReacquireHits)
{
    buffer_pool pool;
    slab* a = pool.acquire(100);
    EXPECT_EQ(pool.stats().misses, 1u);
    slab_release(a);
    EXPECT_EQ(pool.cached(), 1u);

    slab* b = pool.acquire(100);    // must come from the free list
    EXPECT_EQ(b, a);
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(b->refs.load(), 1u);
    slab_release(b);
}

TEST(BufferPool, OutstandingGaugeTracksLiveSlabs)
{
    buffer_pool pool;
    EXPECT_EQ(pool.stats().outstanding, 0u);
    slab* a = pool.acquire(10);
    slab* b = pool.acquire(10);
    slab* c = pool.acquire(5000);
    EXPECT_EQ(pool.stats().outstanding, 3u);
    slab_release(a);
    slab_release(b);
    slab_release(c);
    EXPECT_EQ(pool.stats().outstanding, 0u);
    // Free-listed slabs are cached, not outstanding.
    EXPECT_EQ(pool.cached(), 3u);
}

TEST(BufferPool, OversizedRequestFallsBackToHeapNotFailure)
{
    buffer_pool pool;
    std::size_t const huge = (1u << 20) + 1;
    slab* s = pool.acquire(huge);
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->capacity, huge);
    EXPECT_EQ(s->size_class, buffer_pool::heap_class);
    EXPECT_EQ(pool.stats().heap_fallbacks, 1u);

    // The whole capacity is writable.
    std::memset(s->data(), 0xab, huge);
    EXPECT_EQ(s->data()[huge - 1], 0xab);

    slab_release(s);
    // Heap slabs go straight back to the heap, never the free lists.
    EXPECT_EQ(pool.cached(), 0u);
    EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BufferPool, FreeListIsCappedExcessGoesToHeap)
{
    buffer_pool pool(/*max_free_per_class=*/4);
    std::vector<slab*> slabs;
    for (int i = 0; i != 16; ++i)
        slabs.push_back(pool.acquire(64));
    for (slab* s : slabs)
        slab_release(s);
    EXPECT_EQ(pool.cached(), 4u);
}

// Every class edge ±1 B: the O(1) index agrees with a linear scan over
// the classes, and above 256 B the slab never carries 25 % slack.
TEST(BufferPool, SlackBoundedAtEveryClassEdge)
{
    auto scan = [](std::size_t n) {
        std::size_t cls = 0;
        while (cls != buffer_pool::num_classes &&
            buffer_pool::class_capacity(cls) < n)
            ++cls;
        return cls;
    };
    buffer_pool pool;
    for (std::size_t cls = 0; cls != buffer_pool::num_classes; ++cls)
    {
        std::size_t const edge = buffer_pool::class_capacity(cls);
        for (std::size_t const n : {edge - 1, edge, edge + 1})
        {
            std::size_t const idx = buffer_pool::class_index(n);
            ASSERT_EQ(idx, scan(n)) << "request " << n;
            if (idx == buffer_pool::num_classes)
                continue;    // above the top class: heap fallback
            std::size_t const capacity = buffer_pool::class_capacity(idx);
            EXPECT_GE(capacity, n);
            if (n > 256)
            {
                EXPECT_LT(capacity * 4, n * 5) << "request " << n;
            }
            slab* s = pool.acquire(n);
            EXPECT_EQ(s->capacity, capacity);
            EXPECT_EQ(s->size_class, idx);
            slab_release(s);
        }
    }
    EXPECT_EQ(buffer_pool::class_index(0), 0u);
    EXPECT_EQ(buffer_pool::class_index((1u << 20) + 1),
        buffer_pool::num_classes);
}

// The free lists' worst case — every list full — stays within what the
// former seven ×4 classes (256 B .. 1 MiB) could cache at 64 slabs each.
TEST(BufferPool, FreeListBudgetStaysUnderTheGeometricBound)
{
    buffer_pool pool;    // default: 64 slabs per class
    std::size_t worst = 0;
    for (std::size_t cls = 0; cls != buffer_pool::num_classes; ++cls)
        worst += pool.free_list_limit(cls) * buffer_pool::class_capacity(cls);
    std::size_t geometric = 0;
    for (std::size_t cls = 0; cls != 7; ++cls)
        geometric += 64 * (std::size_t(256) << (2 * cls));
    EXPECT_LE(worst, geometric);
    EXPECT_EQ(pool.free_list_limit(0), 64u);

    // Recycling honours the per-class limit for the top class too.
    std::size_t const top = buffer_pool::num_classes - 1;
    std::vector<slab*> slabs;
    for (int i = 0; i != 8; ++i)
        slabs.push_back(pool.acquire(buffer_pool::class_capacity(top)));
    for (slab* s : slabs)
        slab_release(s);
    EXPECT_EQ(pool.cached(), pool.free_list_limit(top));
    EXPECT_LT(pool.free_list_limit(top), 8u);
}

TEST(BufferPool, CopyAccountingSeams)
{
    buffer_pool pool;
    pool.count_copied(100);
    pool.count_referenced(1000);
    pool.count_flatten(64);
    auto const s = pool.stats();
    EXPECT_EQ(s.bytes_copied, 100u);
    EXPECT_EQ(s.bytes_referenced, 1000u);
    EXPECT_EQ(s.flattens, 1u);
    EXPECT_EQ(s.bytes_flattened, 64u);
}

TEST(SharedBuffer, CopyBumpsRefcountViewAliasesSlab)
{
    shared_buffer a(byte_buffer{1, 2, 3, 4, 5, 6, 7, 8});
    ASSERT_NE(a.slab(), nullptr);
    EXPECT_TRUE(a.unique());

    shared_buffer const b = a;
    EXPECT_FALSE(a.unique());
    EXPECT_EQ(a.slab(), b.slab());

    shared_buffer const v = a.view(2, 4);
    EXPECT_EQ(v.slab(), a.slab());
    EXPECT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 3u);
    EXPECT_EQ(v[3], 6u);
}

// The retransmission-table property: a frame retained by reference must
// keep its bytes intact while the pool recycles its slab class hundreds of
// times underneath (a use-after-recycle bug would corrupt it).
TEST(SharedBuffer, RetainedFrameSurvivesPoolChurn)
{
    byte_buffer payload(2000);
    for (std::size_t i = 0; i != payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 31 + 7);

    wire_message msg;
    msg.write_value(std::uint64_t{0xfeedface});
    msg.append_fragment(shared_buffer(payload));
    wire_message const retained = msg;    // refcount share, like unacked_frame

    // Churn: acquire and drop buffers of every size class from the same
    // (global) pool the fragments live in.
    for (int round = 0; round != 200; ++round)
    {
        shared_buffer churn(64 + static_cast<std::size_t>(round) * 17,
            static_cast<std::uint8_t>(round));
        shared_buffer churn2 = churn;
        (void) churn2;
    }

    auto const flat = retained.flatten_copy();
    ASSERT_EQ(flat.size(), sizeof(std::uint64_t) + payload.size());
    std::uint64_t magic = 0;
    std::memcpy(&magic, flat.data(), sizeof(magic));
    EXPECT_EQ(magic, 0xfeedfaceu);
    EXPECT_EQ(
        std::memcmp(flat.data() + sizeof(magic), payload.data(),
            payload.size()),
        0);
}

TEST(BufferPool, ResidentBytesTrackLiveSlabsNotFreeLists)
{
    buffer_pool pool;
    EXPECT_EQ(pool.stats().resident_bytes, 0u);

    slab* a = pool.acquire(100);     // 256 B class
    slab* b = pool.acquire(5000);    // 5 KiB class
    EXPECT_EQ(pool.stats().resident_bytes, 256u + 5120u);
    EXPECT_EQ(pool.stats().resident_bytes_peak, 256u + 5120u);

    slab_release(a);
    slab_release(b);
    // Free-listed slabs are cached, not resident; the peak stays.
    EXPECT_EQ(pool.stats().resident_bytes, 0u);
    EXPECT_EQ(pool.stats().resident_bytes_peak, 256u + 5120u);
}

TEST(BufferPool, PressureStatesFollowTheWatermarks)
{
    buffer_pool pool;
    EXPECT_EQ(pool.pressure(), coal::pressure_state::ok);

    // soft 1 KiB, critical 32 KiB: critical is *reported* one headroom
    // (critical/8 = 4 KiB) early, i.e. at resident >= 28 KiB.
    pool.set_watermarks(1024, 32 * 1024, 0);
    EXPECT_EQ(pool.pressure(), coal::pressure_state::ok);

    slab* a = pool.acquire(1024);
    EXPECT_EQ(pool.pressure(), coal::pressure_state::soft);

    slab* b = pool.acquire(40 * 1024);    // 40 KiB class: over the line
    EXPECT_EQ(pool.pressure(), coal::pressure_state::critical);

    slab_release(b);
    EXPECT_EQ(pool.pressure(), coal::pressure_state::soft);
    slab_release(a);
    EXPECT_EQ(pool.pressure(), coal::pressure_state::ok);

    pool.set_watermarks(0, 0, 0);    // disabled again
}

TEST(BufferPool, FallbackCapRefusesTryAcquireAndForcesCritical)
{
    buffer_pool pool;
    std::size_t const huge = (1u << 20) + 1;    // above the top class
    pool.set_watermarks(0, 0, 2 * huge);

    slab* a = pool.try_acquire(huge);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->size_class, buffer_pool::heap_class);
    EXPECT_EQ(pool.stats().fallback_bytes, huge);

    slab* b = pool.try_acquire(huge);    // 2*huge live: at the cap now
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(pool.pressure(), coal::pressure_state::critical);
    EXPECT_EQ(pool.stats().fallback_bytes_peak, 2 * huge);

    // Over the cap: try_acquire refuses, the refusal is counted, and the
    // uncapped acquire() still never fails.
    EXPECT_EQ(pool.try_acquire(huge), nullptr);
    EXPECT_EQ(pool.stats().fallback_cap_hits, 1u);
    slab* c = pool.acquire(huge);
    ASSERT_NE(c, nullptr);

    // Pooled size classes are never refused, even at the fallback cap.
    slab* d = pool.try_acquire(100);
    ASSERT_NE(d, nullptr);

    slab_release(a);
    slab_release(b);
    slab_release(c);
    slab_release(d);
    EXPECT_EQ(pool.stats().fallback_bytes, 0u);
    EXPECT_EQ(pool.stats().fallback_bytes_peak, 3 * huge);
    EXPECT_EQ(pool.pressure(), coal::pressure_state::ok);
}

TEST(SharedBuffer, SerializesAsLengthPrefixedBytes)
{
    shared_buffer const in(byte_buffer{9, 8, 7, 6});
    auto const wire = coal::serialization::to_bytes(in);
    auto const out = coal::serialization::from_bytes<shared_buffer>(wire);
    EXPECT_EQ(out, in);
}

}    // namespace
