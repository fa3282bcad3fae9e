#pragma once

/// \file wire_format.hpp
/// Length-prefixed, CRC32C-protected framing for the real (socket)
/// parcelport.
///
/// A stream between two processes is a sequence of frames:
///
///     [ 32-byte header | payload (payload_len bytes) ]
///
/// with the header laid out as (little-endian, packed):
///
///     u32 magic        'C' 'O' 'A' 'W'  (0x57414f43)
///     u8  version      wire_version
///     u8  kind         frame_kind
///     u16 flags        reserved, must be 0
///     u32 src          source locality id
///     u32 dst          destination locality id
///     u32 payload_len  bytes following the header (<= frame cap)
///     u32 payload_crc  CRC32C of the payload bytes
///     u32 seq          per-connection frame ordinal (diagnostics only)
///     u32 header_crc   CRC32C of the preceding 28 header bytes
///
/// Integrity policy (the containment contract the fuzz tests assert):
///
///  - `header_crc` is validated *before* `payload_len` is trusted, so a
///    corrupted length can never trigger an allocation — the decoder
///    allocates the payload buffer only for a header that passed its CRC
///    and whose length is within the configured cap.
///  - A bad magic, bad header CRC, nonzero flags, wrong version or
///    oversized length means the byte stream itself is unsynchronized
///    (stream framing is lost, not just one frame): the decoder reports a
///    *fatal* error and the connection must be dropped and re-established.
///    The reliability layer retransmits whatever was in flight.
///  - A bad `payload_crc` damages exactly one frame; the stream remains
///    aligned.  The frame is dropped and counted, never delivered.
///  - Truncation (EOF mid-frame) surfaces as `finish()` reporting the
///    partial frame; partial bytes are discarded and counted.
///
/// Decoded frames are handed out as zero-copy views: the decoder reads
/// straight into a pooled `shared_buffer` per frame and the delivery
/// callback receives that buffer (no post-decode copy).

#include <coal/serialization/buffer.hpp>

#include <cstddef>
#include <cstdint>
#include <functional>

namespace coal::net::wire {

inline constexpr std::uint32_t frame_magic = 0x57414f43u;    // "COAW"
inline constexpr std::uint8_t wire_version = 1;
inline constexpr std::size_t header_size = 32;

/// Frames a parcelport exchanges.  `data` carries a parcel-layer wire
/// message; the others are the socket-level control plane (bootstrap
/// handshake, distributed barrier, graceful close).
enum class frame_kind : std::uint8_t
{
    data = 1,
    hello = 2,            ///< bootstrap: version/digest/rank exchange
    barrier_enter = 3,    ///< rank -> coordinator
    barrier_release = 4,    ///< coordinator -> rank
    goodbye = 5,            ///< graceful shutdown (vs. a crash's RST/EOF)
};

/// CRC32C (Castagnoli), bit-reflected, init/final-xor 0xffffffff — the
/// polynomial iSCSI/ext4 use and SSE4.2 accelerates.  `seed` is a
/// previous result, so crc32c(b, n, crc32c(a, m)) == crc32c(a‖b).
///
/// Every frame is checksummed on send and verified on receive, so this
/// runs over every wire byte twice.  On x86-64 CPUs with SSE4.2 it uses
/// the `crc32` instruction on three interleaved 8-byte streams, ~50× the
/// bytewise loop on 4–64 KiB frames; the path is chosen once per process,
/// on first use.  Other CPUs take the bytewise table loop.
[[nodiscard]] std::uint32_t crc32c(
    void const* data, std::size_t size, std::uint32_t seed = 0) noexcept;

namespace detail {

/// The bytewise table loop: the fallback without SSE4.2 and the
/// reference the accelerated path is tested against.
[[nodiscard]] std::uint32_t crc32c_reference(
    void const* data, std::size_t size, std::uint32_t seed = 0) noexcept;

/// Which implementation crc32c() dispatches to: "sse4.2" or "bytewise".
[[nodiscard]] char const* crc32c_implementation() noexcept;

}    // namespace detail

/// In-memory (host-order) frame header.  The wire layout matches the
/// packed description above; encode/decode go through explicit
/// little-endian serialization, so the format is stable across hosts.
struct frame_header
{
    std::uint8_t kind = 0;
    std::uint16_t flags = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t payload_crc = 0;
    std::uint32_t seq = 0;
};

/// Serialize a header (computing both CRCs) into `out[header_size]`.
void encode_header(frame_header const& h, std::uint8_t* out) noexcept;

/// Why a fed byte sequence was rejected.
enum class decode_error : std::uint8_t
{
    bad_magic,         ///< fatal: stream unsynchronized
    bad_version,       ///< fatal: peer speaks a different wire revision
    bad_flags,         ///< fatal: reserved flags set (header corrupt)
    bad_header_crc,    ///< fatal: header bytes damaged
    oversized,         ///< fatal: length field exceeds the frame cap
    bad_payload_crc,    ///< recoverable: one frame damaged, stream aligned
    truncated,          ///< connection ended mid-frame
};

[[nodiscard]] char const* to_string(decode_error e) noexcept;

/// Running totals a decoder keeps (feeds the /net/wire counters).
struct decoder_stats
{
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t crc_drops = 0;      ///< payload-CRC frame drops
    std::uint64_t fatal_errors = 0;    ///< desync errors (connection dropped)
    std::uint64_t oversized_drops = 0;
    std::uint64_t truncated_drops = 0;
};

/// Incremental frame decoder for one byte stream (one connection).
///
/// feed() consumes an arbitrary chunk of received bytes, invoking
/// `on_frame(header, payload)` for every complete, CRC-verified frame.
/// Errors are reported through `on_error`; after a *fatal* error the
/// decoder refuses further input until reset() (the caller is expected to
/// drop the connection, so a fresh connection gets a fresh decoder).
///
/// Memory containment: buffered state never exceeds `header_size +
/// max_frame_bytes`, and no payload allocation happens before the header
/// CRC validates the length field.  No exception escapes feed().
class frame_decoder
{
public:
    using frame_handler =
        std::function<void(frame_header const&, serialization::shared_buffer&&)>;
    using error_handler = std::function<void(decode_error)>;

    explicit frame_decoder(std::size_t max_frame_bytes,
        frame_handler on_frame, error_handler on_error = {});

    /// Consume `size` bytes of stream.  Returns false after a fatal
    /// error (caller should close the connection).
    bool feed(void const* data, std::size_t size) noexcept;

    /// Signal end-of-stream: a partially-buffered frame is reported as
    /// `truncated` and discarded.
    void finish() noexcept;

    /// Forget all buffered state (new connection, same counters).
    void reset() noexcept;

    [[nodiscard]] bool failed() const noexcept
    {
        return failed_;
    }

    /// Bytes currently buffered (bounded by header_size + cap).
    [[nodiscard]] std::size_t buffered_bytes() const noexcept
    {
        return have_;
    }

    [[nodiscard]] decoder_stats const& stats() const noexcept
    {
        return stats_;
    }

    [[nodiscard]] std::size_t max_frame_bytes() const noexcept
    {
        return max_frame_bytes_;
    }

private:
    [[nodiscard]] bool parse_header() noexcept;

    std::size_t max_frame_bytes_;
    frame_handler on_frame_;
    error_handler on_error_;

    // Decode state machine: accumulate header_size bytes into header_,
    // validate, then accumulate payload_len bytes into payload_.
    std::uint8_t header_[header_size];
    frame_header current_{};
    serialization::shared_buffer payload_;    // allocated post-validation
    std::size_t have_ = 0;     // bytes buffered for the current stage
    bool in_payload_ = false;
    bool failed_ = false;

    decoder_stats stats_;
};

}    // namespace coal::net::wire
