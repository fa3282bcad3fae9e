// Wire-format framing and decoder-containment tests.
//
// The containment contract under test (wire_format.hpp): whatever bytes
// are fed — truncated, bit-flipped, oversized length prefixes, random
// garbage — the decoder never throws, never delivers a frame whose CRC
// does not match, never allocates a payload larger than the frame cap,
// and counts every rejection.

#include <coal/net/wire_format.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

using namespace coal;
using namespace coal::net::wire;

namespace {

struct decoded
{
    std::vector<std::pair<frame_header, serialization::byte_buffer>> frames;
    std::vector<decode_error> errors;
};

struct harness
{
    decoded out;
    frame_decoder dec;

    explicit harness(std::size_t cap = 1 << 20)
      : dec(cap,
            [this](frame_header const& h, serialization::shared_buffer&& p) {
                out.frames.emplace_back(h, p.to_vector());
            },
            [this](decode_error e) { out.errors.push_back(e); })
    {
    }
};

serialization::byte_buffer make_frame(std::uint8_t kind, std::uint32_t src,
    std::uint32_t dst, serialization::byte_buffer const& payload,
    std::uint32_t seq = 0)
{
    frame_header h;
    h.kind = kind;
    h.src = src;
    h.dst = dst;
    h.payload_len = static_cast<std::uint32_t>(payload.size());
    h.payload_crc = crc32c(payload.data(), payload.size());
    h.seq = seq;

    serialization::byte_buffer bytes(header_size + payload.size());
    encode_header(h, bytes.data());
    std::copy(payload.begin(), payload.end(), bytes.begin() + header_size);
    return bytes;
}

// Every CRC check runs against the dispatched function (the hardware path
// on an SSE4.2 host) and the bytewise reference.
using crc_fn =
    std::uint32_t (*)(void const*, std::size_t, std::uint32_t) noexcept;

crc_fn const crc_impls[] = {crc32c, detail::crc32c_reference};

}    // namespace

TEST(wire_format, crc32c_known_vectors)
{
    // RFC 3720 (iSCSI) appendix B.4 vectors, plus the customary check
    // value "123456789" -> 0xe3069283.
    std::uint8_t zeros[32] = {};
    std::uint8_t ones[32];
    std::uint8_t up[32];
    std::uint8_t down[32];
    for (int i = 0; i != 32; ++i)
    {
        ones[i] = 0xff;
        up[i] = static_cast<std::uint8_t>(i);
        down[i] = static_cast<std::uint8_t>(31 - i);
    }
    for (crc_fn crc : crc_impls)
    {
        EXPECT_EQ(crc("123456789", 9, 0), 0xe3069283u);
        EXPECT_EQ(crc(zeros, sizeof zeros, 0), 0x8a9136aau);
        EXPECT_EQ(crc(ones, sizeof ones, 0), 0x62a8ab43u);
        EXPECT_EQ(crc(up, sizeof up, 0), 0x46dd794eu);
        EXPECT_EQ(crc(down, sizeof down, 0), 0x113fdb5cu);
        EXPECT_EQ(crc(nullptr, 0, 0), 0u);
    }
}

TEST(wire_format, crc32c_dispatched_matches_reference_at_every_length)
{
    // Past both three-stream tiers (3x512 B, 3x64 B) and both tails, at
    // every start alignment.
    constexpr std::size_t max_len = 3 * 512 + 3 * 64 + 17;
    std::mt19937 rng(7);
    std::vector<std::uint8_t> bytes(max_len + 8);
    for (auto& b : bytes)
        b = static_cast<std::uint8_t>(rng());

    for (std::size_t offset = 0; offset != 8; ++offset)
        for (std::size_t len = 0; len <= max_len; ++len)
        {
            auto const seed = static_cast<std::uint32_t>(len * 2654435761u);
            ASSERT_EQ(crc32c(bytes.data() + offset, len, seed),
                detail::crc32c_reference(bytes.data() + offset, len, seed))
                << "offset " << offset << " length " << len;
        }
}

TEST(wire_format, crc32c_chains_through_the_seed)
{
    std::mt19937 rng(11);
    std::vector<std::uint8_t> bytes(8192);
    for (auto& b : bytes)
        b = static_cast<std::uint8_t>(rng());

    for (crc_fn crc : crc_impls)
    {
        std::uint32_t const whole = crc(bytes.data(), bytes.size(), 0);
        for (std::size_t split :
            {std::size_t(0), std::size_t(1), std::size_t(7), std::size_t(64),
                std::size_t(1535), std::size_t(4096), bytes.size()})
        {
            std::uint32_t const a = crc(bytes.data(), split, 0);
            EXPECT_EQ(crc(bytes.data() + split, bytes.size() - split, a),
                whole)
                << "split " << split;
        }
    }
}

TEST(wire_format, crc32c_names_its_implementation)
{
    std::string const impl = detail::crc32c_implementation();
    EXPECT_TRUE(impl == "sse4.2" || impl == "bytewise") << impl;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
    {
        EXPECT_EQ(impl, "sse4.2");
    }
#endif
}

TEST(wire_format, roundtrip_single_frame)
{
    harness h;
    serialization::byte_buffer const payload{1, 2, 3, 4, 5};
    auto const bytes = make_frame(1, 3, 7, payload, 42);

    EXPECT_TRUE(h.dec.feed(bytes.data(), bytes.size()));
    ASSERT_EQ(h.out.frames.size(), 1u);
    EXPECT_TRUE(h.out.errors.empty());

    auto const& [hdr, body] = h.out.frames[0];
    EXPECT_EQ(hdr.kind, 1);
    EXPECT_EQ(hdr.src, 3u);
    EXPECT_EQ(hdr.dst, 7u);
    EXPECT_EQ(hdr.seq, 42u);
    EXPECT_EQ(body, payload);
}

TEST(wire_format, roundtrip_byte_at_a_time)
{
    harness h;
    serialization::byte_buffer payload(300);
    for (std::size_t i = 0; i != payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);
    auto const bytes = make_frame(1, 0, 1, payload);

    for (std::uint8_t const b : bytes)
        ASSERT_TRUE(h.dec.feed(&b, 1));
    ASSERT_EQ(h.out.frames.size(), 1u);
    EXPECT_EQ(h.out.frames[0].second, payload);
    EXPECT_EQ(h.dec.buffered_bytes(), 0u);
}

TEST(wire_format, multiple_frames_one_read)
{
    harness h;
    serialization::byte_buffer stream;
    for (std::uint32_t i = 0; i != 8; ++i)
    {
        serialization::byte_buffer payload(i * 13);
        for (std::size_t j = 0; j != payload.size(); ++j)
            payload[j] = static_cast<std::uint8_t>(i + j);
        auto const f = make_frame(1, i, i + 1, payload, i);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    EXPECT_TRUE(h.dec.feed(stream.data(), stream.size()));
    EXPECT_EQ(h.out.frames.size(), 8u);
    EXPECT_TRUE(h.out.errors.empty());
}

TEST(wire_format, zero_length_payload)
{
    harness h;
    auto const bytes = make_frame(5, 0, 0, {});
    EXPECT_TRUE(h.dec.feed(bytes.data(), bytes.size()));
    ASSERT_EQ(h.out.frames.size(), 1u);
    EXPECT_TRUE(h.out.frames[0].second.empty());
}

TEST(wire_format, payload_bit_flip_drops_only_that_frame)
{
    harness h;
    serialization::byte_buffer const payload{10, 20, 30, 40};
    auto bad = make_frame(1, 0, 1, payload);
    bad[header_size + 2] ^= 0x01;    // damage the payload
    auto const good = make_frame(1, 0, 1, payload, 1);

    EXPECT_TRUE(h.dec.feed(bad.data(), bad.size()));
    EXPECT_TRUE(h.dec.feed(good.data(), good.size()));

    // Stream stays aligned: the damaged frame dropped, the next delivered.
    ASSERT_EQ(h.out.frames.size(), 1u);
    EXPECT_EQ(h.out.frames[0].first.seq, 1u);
    ASSERT_EQ(h.out.errors.size(), 1u);
    EXPECT_EQ(h.out.errors[0], decode_error::bad_payload_crc);
    EXPECT_EQ(h.dec.stats().crc_drops, 1u);
    EXPECT_FALSE(h.dec.failed());
}

TEST(wire_format, header_bit_flips_never_deliver_and_are_fatal)
{
    // Flip every bit position of the header in turn: none may produce a
    // delivered frame with wrong content, and all must be rejected
    // (header CRC / magic / version / flags).
    serialization::byte_buffer const payload{1, 2, 3};
    auto const pristine = make_frame(1, 4, 5, payload, 9);

    for (std::size_t byte = 0; byte != header_size; ++byte)
    {
        for (int bit = 0; bit != 8; ++bit)
        {
            harness h;
            auto corrupt = pristine;
            corrupt[byte] ^= static_cast<std::uint8_t>(1 << bit);

            bool const ok = h.dec.feed(corrupt.data(), corrupt.size());
            ASSERT_FALSE(ok) << "byte " << byte << " bit " << bit;
            ASSERT_TRUE(h.dec.failed());
            ASSERT_TRUE(h.out.frames.empty());
            ASSERT_EQ(h.out.errors.size(), 1u);
            // After a fatal error further input is refused.
            ASSERT_FALSE(h.dec.feed(pristine.data(), pristine.size()));
            ASSERT_TRUE(h.out.frames.empty());
        }
    }
}

TEST(wire_format, oversized_length_prefix_rejected_before_allocation)
{
    // A valid header (CRC intact) whose length exceeds the cap must be
    // rejected as oversized — and because the decoder checks the cap
    // before allocating, feeding just the header cannot allocate 4 GiB.
    harness h(4096);

    frame_header hdr;
    hdr.kind = 1;
    hdr.payload_len = 0xfffffff0u;
    hdr.payload_crc = 0;

    std::uint8_t bytes[header_size];
    encode_header(hdr, bytes);

    EXPECT_FALSE(h.dec.feed(bytes, sizeof bytes));
    ASSERT_EQ(h.out.errors.size(), 1u);
    EXPECT_EQ(h.out.errors[0], decode_error::oversized);
    EXPECT_EQ(h.dec.stats().oversized_drops, 1u);
    EXPECT_TRUE(h.out.frames.empty());
}

TEST(wire_format, truncated_stream_counted_on_finish)
{
    harness h;
    serialization::byte_buffer const payload{1, 2, 3, 4, 5, 6, 7, 8};
    auto const bytes = make_frame(1, 0, 1, payload);

    // Cut the stream at every possible interior offset.
    for (std::size_t cut = 1; cut != bytes.size(); ++cut)
    {
        harness t;
        ASSERT_TRUE(t.dec.feed(bytes.data(), cut));
        t.dec.finish();
        ASSERT_TRUE(t.out.frames.empty()) << "cut " << cut;
        ASSERT_EQ(t.out.errors.size(), 1u) << "cut " << cut;
        ASSERT_EQ(t.out.errors[0], decode_error::truncated);
        ASSERT_EQ(t.dec.stats().truncated_drops, 1u);
    }

    // A clean boundary is not a truncation.
    ASSERT_TRUE(h.dec.feed(bytes.data(), bytes.size()));
    h.dec.finish();
    EXPECT_TRUE(h.out.errors.empty());
}

TEST(wire_format, random_garbage_never_delivers)
{
    // Pure noise: the odds of a random 32-byte block passing magic +
    // header CRC are negligible; the decoder must reject without
    // delivering and without unbounded buffering.
    std::mt19937 rng(1234);
    for (int round = 0; round != 64; ++round)
    {
        harness h(4096);
        serialization::byte_buffer noise(512);
        for (auto& b : noise)
            b = static_cast<std::uint8_t>(rng());

        h.dec.feed(noise.data(), noise.size());
        EXPECT_TRUE(h.out.frames.empty());
        EXPECT_TRUE(h.dec.failed());
        EXPECT_LE(h.dec.buffered_bytes(), header_size + 4096);
    }
}

TEST(wire_format, fuzz_mutated_frame_streams_contained)
{
    // Fuzz: build a small valid stream, then mutate random bytes and feed
    // in random-sized chunks.  Invariants: no delivered frame may differ
    // from an original (CRC catches content damage), errors are counted,
    // buffered bytes stay bounded.  Seeded — failures reproduce.
    std::mt19937 rng(98765);

    for (int round = 0; round != 200; ++round)
    {
        serialization::byte_buffer stream;
        std::vector<serialization::byte_buffer> payloads;
        std::uniform_int_distribution<int> nframes(1, 4);
        std::uniform_int_distribution<int> plen(0, 200);
        int const n = nframes(rng);
        for (int i = 0; i != n; ++i)
        {
            serialization::byte_buffer payload(
                static_cast<std::size_t>(plen(rng)));
            for (auto& b : payload)
                b = static_cast<std::uint8_t>(rng());
            payloads.push_back(payload);
            auto const f = make_frame(1, 0, 1, payload,
                static_cast<std::uint32_t>(i));
            stream.insert(stream.end(), f.begin(), f.end());
        }

        // Mutate a few random bytes (possibly none).
        std::uniform_int_distribution<int> nmut(0, 3);
        int const muts = nmut(rng);
        for (int i = 0; i != muts; ++i)
        {
            std::uniform_int_distribution<std::size_t> pos(
                0, stream.size() - 1);
            stream[pos(rng)] ^= static_cast<std::uint8_t>(1 + (rng() % 255));
        }

        harness h(4096);
        std::size_t off = 0;
        while (off < stream.size())
        {
            std::uniform_int_distribution<std::size_t> chunk(
                1, stream.size() - off);
            std::size_t const take = chunk(rng);
            if (!h.dec.feed(stream.data() + off, take))
                break;    // fatal: connection would drop here
            off += take;
            ASSERT_LE(h.dec.buffered_bytes(), header_size + 4096);
        }
        h.dec.finish();

        // Every delivered frame must byte-match one of the originals.
        for (auto const& [hdr, body] : h.out.frames)
        {
            bool matched = false;
            for (auto const& p : payloads)
                matched = matched || body == p;
            ASSERT_TRUE(matched)
                << "round " << round << " delivered a corrupted frame";
        }
        // Conservation: frames delivered + errors >= 1 when anything was
        // fed, and with no mutations everything is delivered.
        if (muts == 0)
        {
            ASSERT_EQ(h.out.frames.size(), payloads.size());
            ASSERT_TRUE(h.out.errors.empty());
        }
    }
}

TEST(wire_format, reset_recovers_a_failed_decoder)
{
    harness h;
    serialization::byte_buffer garbage(64, 0xaa);
    EXPECT_FALSE(h.dec.feed(garbage.data(), garbage.size()));
    EXPECT_TRUE(h.dec.failed());

    h.dec.reset();
    EXPECT_FALSE(h.dec.failed());

    auto const good = make_frame(1, 0, 1, {9, 8, 7});
    EXPECT_TRUE(h.dec.feed(good.data(), good.size()));
    ASSERT_EQ(h.out.frames.size(), 1u);
}
