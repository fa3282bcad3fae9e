#include <coal/net/wire_format.hpp>

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace coal::net::wire {

namespace {

/// CRC32C lookup table (reflected polynomial 0x82f63b78), built once.
struct crc_table
{
    std::array<std::uint32_t, 256> t{};

    constexpr crc_table()
    {
        for (std::uint32_t i = 0; i != 256; ++i)
        {
            std::uint32_t c = i;
            for (int k = 0; k != 8; ++k)
                c = (c & 1u) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
    }
};

constexpr crc_table g_crc{};

#if defined(__x86_64__)

/// Appending `zeros` zero bytes to a message maps the raw (uninverted)
/// CRC register c to a linear function of c; this tabulates it per byte
/// of c.  It joins independently computed streams: the register after
/// A‖B is shift_|B|(register after A) ^ (register of B from 0).
struct zeros_shift
{
    std::array<std::array<std::uint32_t, 256>, 4> t{};

    constexpr explicit zeros_shift(std::size_t zeros)
    {
        // Image of each single register bit, then XOR them per byte value.
        std::array<std::uint32_t, 32> bit{};
        for (int i = 0; i != 32; ++i)
        {
            std::uint32_t c = 1u << i;
            for (std::size_t n = 0; n != zeros; ++n)
                c = g_crc.t[c & 0xffu] ^ (c >> 8);
            bit[i] = c;
        }
        for (int k = 0; k != 4; ++k)
            for (std::uint32_t v = 0; v != 256; ++v)
                for (int b = 0; b != 8; ++b)
                    if ((v >> b) & 1u)
                        t[k][v] ^= bit[8 * k + b];
    }

    [[nodiscard]] std::uint32_t operator()(std::uint32_t c) const noexcept
    {
        return t[0][c & 0xffu] ^ t[1][(c >> 8) & 0xffu] ^
            t[2][(c >> 16) & 0xffu] ^ t[3][c >> 24];
    }
};

// The crc32 instruction has a 3-cycle latency and 1-cycle throughput, so
// three independent streams keep it busy.  Long blocks amortize the
// joins; the short tier takes the 192..1535-byte remainders before the
// serial tail.
constexpr std::size_t long_block = 512;
constexpr std::size_t short_block = 64;
constexpr zeros_shift g_shift_long{long_block};
constexpr zeros_shift g_shift_short{short_block};

[[nodiscard]] std::uint64_t load_u64(unsigned char const* p) noexcept
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Consume whole 3×block groups from [p, p+size) into the raw register c.
template <std::size_t Block>
__attribute__((target("sse4.2"))) std::uint64_t crc_three_way(
    std::uint64_t c, unsigned char const*& p, std::size_t& size,
    zeros_shift const& shift) noexcept
{
    while (size >= 3 * Block)
    {
        std::uint64_t c1 = 0;
        std::uint64_t c2 = 0;
        for (std::size_t i = 0; i != Block; i += 8)
        {
            c = _mm_crc32_u64(c, load_u64(p + i));
            c1 = _mm_crc32_u64(c1, load_u64(p + Block + i));
            c2 = _mm_crc32_u64(c2, load_u64(p + 2 * Block + i));
        }
        c = shift(static_cast<std::uint32_t>(c)) ^ c1;
        c = shift(static_cast<std::uint32_t>(c)) ^ c2;
        p += 3 * Block;
        size -= 3 * Block;
    }
    return c;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    auto const* p = static_cast<unsigned char const*>(data);
    std::uint64_t c = static_cast<std::uint32_t>(~seed);
    c = crc_three_way<long_block>(c, p, size, g_shift_long);
    c = crc_three_way<short_block>(c, p, size, g_shift_short);
    for (; size >= 8; p += 8, size -= 8)
        c = _mm_crc32_u64(c, load_u64(p));
    for (; size != 0; ++p, --size)
        c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p);
    return ~static_cast<std::uint32_t>(c);
}

#endif

using crc_fn =
    std::uint32_t (*)(void const*, std::size_t, std::uint32_t) noexcept;

[[nodiscard]] crc_fn resolve_crc32c() noexcept
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return crc32c_sse42;
#endif
    return detail::crc32c_reference;
}

/// Resolved on first use, so a static initializer elsewhere that frames
/// a message cannot observe an unresolved pointer.
[[nodiscard]] crc_fn crc32c_impl() noexcept
{
    static crc_fn const fn = resolve_crc32c();
    return fn;
}

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

[[nodiscard]] std::uint16_t get_u16(std::uint8_t const* p) noexcept
{
    return static_cast<std::uint16_t>(
        p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] std::uint32_t get_u32(std::uint8_t const* p) noexcept
{
    return p[0] | (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
}

}    // namespace

std::uint32_t crc32c(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    return crc32c_impl()(data, size, seed);
}

namespace detail {

std::uint32_t crc32c_reference(
    void const* data, std::size_t size, std::uint32_t seed) noexcept
{
    auto const* p = static_cast<std::uint8_t const*>(data);
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i != size; ++i)
        c = g_crc.t[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return ~c;
}

char const* crc32c_implementation() noexcept
{
    return crc32c_impl() == crc32c_reference ? "bytewise" : "sse4.2";
}

}    // namespace detail

void encode_header(frame_header const& h, std::uint8_t* out) noexcept
{
    put_u32(out + 0, frame_magic);
    out[4] = wire_version;
    out[5] = h.kind;
    put_u16(out + 6, h.flags);
    put_u32(out + 8, h.src);
    put_u32(out + 12, h.dst);
    put_u32(out + 16, h.payload_len);
    put_u32(out + 20, h.payload_crc);
    put_u32(out + 24, h.seq);
    put_u32(out + 28, crc32c(out, header_size - 4));
}

char const* to_string(decode_error e) noexcept
{
    switch (e)
    {
    case decode_error::bad_magic:
        return "bad-magic";
    case decode_error::bad_version:
        return "bad-version";
    case decode_error::bad_flags:
        return "bad-flags";
    case decode_error::bad_header_crc:
        return "bad-header-crc";
    case decode_error::oversized:
        return "oversized";
    case decode_error::bad_payload_crc:
        return "bad-payload-crc";
    case decode_error::truncated:
        return "truncated";
    }
    return "unknown";
}

frame_decoder::frame_decoder(std::size_t max_frame_bytes,
    frame_handler on_frame, error_handler on_error)
  : max_frame_bytes_(max_frame_bytes)
  , on_frame_(std::move(on_frame))
  , on_error_(std::move(on_error))
{
}

bool frame_decoder::parse_header() noexcept
{
    // Validation order matters for containment: everything about the
    // header is checked before payload_len is acted upon.
    auto fail = [this](decode_error e) {
        failed_ = true;
        ++stats_.fatal_errors;
        if (e == decode_error::oversized)
            ++stats_.oversized_drops;
        if (on_error_)
            on_error_(e);
        return false;
    };

    if (get_u32(header_ + 0) != frame_magic)
        return fail(decode_error::bad_magic);
    if (get_u32(header_ + 28) != crc32c(header_, header_size - 4))
        return fail(decode_error::bad_header_crc);
    if (header_[4] != wire_version)
        return fail(decode_error::bad_version);
    if (get_u16(header_ + 6) != 0)
        return fail(decode_error::bad_flags);

    current_.kind = header_[5];
    current_.flags = 0;
    current_.src = get_u32(header_ + 8);
    current_.dst = get_u32(header_ + 12);
    current_.payload_len = get_u32(header_ + 16);
    current_.payload_crc = get_u32(header_ + 20);
    current_.seq = get_u32(header_ + 24);

    if (current_.payload_len > max_frame_bytes_)
        return fail(decode_error::oversized);

    // The only allocation the decoder ever makes, and only for a
    // CRC-validated, cap-checked length.
    payload_ = current_.payload_len != 0 ?
        serialization::shared_buffer(current_.payload_len) :
        serialization::shared_buffer{};
    in_payload_ = true;
    have_ = 0;
    return true;
}

bool frame_decoder::feed(void const* data, std::size_t size) noexcept
{
    if (failed_)
        return false;

    auto const* p = static_cast<std::uint8_t const*>(data);
    while (size != 0)
    {
        if (!in_payload_)
        {
            std::size_t const want = header_size - have_;
            std::size_t const take = want < size ? want : size;
            std::memcpy(header_ + have_, p, take);
            have_ += take;
            p += take;
            size -= take;
            if (have_ != header_size)
                break;
            if (!parse_header())
                return false;
        }

        // Payload stage (possibly zero-length).
        std::size_t const want = current_.payload_len - have_;
        std::size_t const take = want < size ? want : size;
        if (take != 0)
        {
            std::memcpy(payload_.mutable_data() + have_, p, take);
            have_ += take;
            p += take;
            size -= take;
        }
        if (have_ != current_.payload_len)
            break;

        // Frame complete: verify the payload CRC before delivery.
        if (crc32c(payload_.data(), payload_.size()) != current_.payload_crc)
        {
            ++stats_.crc_drops;
            if (on_error_)
                on_error_(decode_error::bad_payload_crc);
        }
        else
        {
            ++stats_.frames;
            stats_.bytes += header_size + current_.payload_len;
            if (on_frame_)
                on_frame_(current_, std::move(payload_));
        }
        payload_ = serialization::shared_buffer{};
        in_payload_ = false;
        have_ = 0;
    }
    return true;
}

void frame_decoder::finish() noexcept
{
    if (failed_)
        return;
    if (have_ != 0 || in_payload_)
    {
        ++stats_.truncated_drops;
        if (on_error_)
            on_error_(decode_error::truncated);
    }
    payload_ = serialization::shared_buffer{};
    in_payload_ = false;
    have_ = 0;
}

void frame_decoder::reset() noexcept
{
    payload_ = serialization::shared_buffer{};
    in_payload_ = false;
    have_ = 0;
    failed_ = false;
}

}    // namespace coal::net::wire
