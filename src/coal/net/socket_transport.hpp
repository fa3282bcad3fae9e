#pragma once

/// \file socket_transport.hpp
/// Real inter-process parcelport: a TCP / Unix-domain-socket stream
/// transport behind the `transport` interface.
///
/// Frames are length-prefixed and CRC32C-protected (wire_format.hpp).
/// Each *process* hosts a contiguous range of localities ("ranks"); every
/// locality maps to the endpoint of its hosting process, and the process
/// listens on one socket per distinct local endpoint.  Connections are
/// *directed*: each process initiates its own outbound connection per
/// remote endpoint (so there is no simultaneous-connect tie-breaking);
/// accepted connections are receive-only.  Frames carry (src, dst)
/// locality ids, so any number of localities multiplex one socket pair.
///
/// Connection lifecycle (DESIGN.md §15):
///
///   idle --send queued--> connecting --HELLO sent--> open
///     ^                       | connect refused/timeout: capped
///     |                       v exponential backoff + jitter
///     +----- queue empty -- closed <-- read error / EOF / forced drop
///
/// On connect, each side sends a HELLO frame carrying the wire version,
/// the locality count, its hosted rank range, the action-registry digest
/// (rank exchange + action-id verification: ids are content-addressed
/// FNV-1a name hashes, so agreement on the digest proves both binaries
/// resolve every action id identically), and a random process nonce used
/// to recognize self-loop connections.  A digest or geometry mismatch
/// closes the connection — fail-fast instead of executing wrong actions.
///
/// Reliability mapping: a dropped / corrupted / truncated frame, a
/// connection drop, or a backlog overflow all surface as *message drops*
/// (counted, never executed) and are healed by the PR 1 retransmit
/// layer; reconnecting does not bump any membership epoch — same
/// incarnation, sequenced frames replay exactly-once.  A partially
/// written frame at disconnect time is dropped (the receiver cannot have
/// completed it) rather than resent, keeping the wire at-most-once so
/// the parcel layer stays exactly-once.
///
/// Thread model: one IO thread owns every fd (poll-based, non-blocking);
/// sender threads only append to per-connection outbound queues and wake
/// the IO thread through a self-pipe.  Delivery handlers run on the IO
/// thread and must be cheap (the parcel layer just inbox-pushes).

#include <coal/net/transport.hpp>
#include <coal/net/wire_format.hpp>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coal::net {

/// Configuration for the socket parcelport.
struct socket_params
{
    enum class family : std::uint8_t
    {
        tcp,    ///< 127.0.0.1 / IPv4 "host:port" endpoints
        uds,    ///< Unix-domain stream sockets, endpoint = path
    };

    family kind = family::tcp;

    /// One endpoint per locality (`host:port` for tcp, a filesystem path
    /// for uds).  Localities hosted by the same process share an
    /// endpoint.  Empty: single-process auto mode — every locality gets
    /// its own ephemeral endpoint on this host (tcp: 127.0.0.1 port 0;
    /// uds: a socket under `uds_dir`).
    std::vector<std::string> endpoints;

    /// Directory for auto-generated uds sockets.
    std::string uds_dir = "/tmp";

    /// Pre-bound listening socket inherited from a launcher (multi-process
    /// bootstrap: the parent binds every rank's listener before spawning,
    /// so advertised ports are collision-free).  -1: bind here.
    int inherited_listen_fd = -1;

    /// Action-registry digest exchanged (and required equal) in the HELLO
    /// handshake; the runtime fills it from
    /// `action_registry::wire_digest()`.  Both sides defaulting to 0
    /// (transport-level unit tests) trivially agree.
    std::uint64_t registry_digest = 0;

    /// await_ready() gives up after this long (a peer process that never
    /// starts).
    std::int64_t bootstrap_timeout_ms = 20'000;

    /// drain()/shutdown(): after this long without forward progress the
    /// transport reconciles (drops what is stuck, counted) instead of
    /// hanging quiesce forever.
    std::int64_t drain_timeout_ms = 2'000;
};

/// Wire-level statistics (feeds the /net/wire/* counters).
struct socket_wire_stats
{
    std::uint64_t bytes_sent = 0;    ///< on-the-wire bytes incl. headers
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_sent = 0;    ///< data + control frames written
    std::uint64_t frames_received = 0;
    std::uint64_t reconnects = 0;      ///< established connections lost
    std::uint64_t connects = 0;        ///< successful connects (incl. re-)
    std::uint64_t accepts = 0;
    std::uint64_t partial_write_resumptions = 0;
    std::uint64_t partial_read_resumptions = 0;
    std::uint64_t crc_drops = 0;        ///< payload-CRC frame drops
    std::uint64_t desync_drops = 0;     ///< fatal decode errors (conn cut)
    std::uint64_t oversized_drops = 0;
    std::uint64_t truncated_drops = 0;
    std::uint64_t connect_failures = 0;
    std::uint64_t accept_failures = 0;
    std::uint64_t handshake_failures = 0;    ///< digest/geometry mismatch
    std::uint64_t backlog_drops = 0;         ///< frames shed at the cap
};

class socket_transport final : public transport
{
public:
    /// Hosts ranks [first_local_rank, first_local_rank + num_local_ranks)
    /// of `num_localities`.  num_local_ranks == 0 hosts all of them
    /// (single-process mode).  Listeners are bound (or adopted) here;
    /// outbound connections are established lazily by traffic, or eagerly
    /// by await_ready().
    socket_transport(socket_params params, std::uint32_t num_localities,
        std::uint32_t first_local_rank = 0, std::uint32_t num_local_ranks = 0);

    ~socket_transport() override;

    socket_transport(socket_transport const&) = delete;
    socket_transport& operator=(socket_transport const&) = delete;

    [[nodiscard]] std::uint32_t num_localities() const noexcept override
    {
        return num_localities_;
    }

    void set_delivery_handler(
        std::uint32_t dst, delivery_handler handler) override;

    void send(std::uint32_t src, std::uint32_t dst,
        serialization::wire_message&& message) override;

    [[nodiscard]] std::uint64_t in_flight() const noexcept override
    {
        return queued_frames_.load(std::memory_order_acquire) +
            loopback_transit_.load(std::memory_order_acquire);
    }

    void drain() override;

    [[nodiscard]] transport_stats stats() const override;

    [[nodiscard]] socket_wire_stats wire_stats() const;

    void shutdown() override;

    /// Chaos API: frames to or from a down locality are dropped at send
    /// and at delivery (kernel-buffered bytes cannot be unsent; the
    /// delivery-side check plays the role of sim_network's heap purge).
    bool set_locality_down(std::uint32_t locality, bool down) override;

    /// ---- bootstrap / rank exchange -----------------------------------

    /// Eagerly connect to every endpoint and wait until each outbound
    /// connection completed the HELLO exchange (digest-verified), with
    /// connect retries while peer processes are still launching.
    /// Returns false on bootstrap timeout or a handshake failure on an
    /// outbound (known-peer) connection; a stray client reaching a
    /// listener is merely closed and counted, never failing bootstrap.
    bool await_ready();

    /// The endpoint actually bound for a locality (auto mode resolves
    /// port 0 / generated uds paths at construction).
    [[nodiscard]] std::string const& endpoint_of(
        std::uint32_t locality) const;

    [[nodiscard]] std::uint32_t first_local_rank() const noexcept
    {
        return first_rank_;
    }

    [[nodiscard]] std::uint32_t num_local_ranks() const noexcept
    {
        return local_count_;
    }

    [[nodiscard]] bool hosts(std::uint32_t locality) const noexcept
    {
        return locality >= first_rank_ && locality < first_rank_ + local_count_;
    }

    /// Number of distinct processes in the endpoint table.
    [[nodiscard]] std::uint32_t process_count() const noexcept
    {
        return process_count_;
    }

    /// ---- distributed barrier (control plane) -------------------------

    /// Enter the next barrier generation; returns its token.  One call
    /// per process per barrier.  Poll barrier_done() until release.
    std::uint64_t enter_barrier();

    [[nodiscard]] bool barrier_done(std::uint64_t token) const noexcept
    {
        return barrier_released_.load(std::memory_order_acquire) >= token;
    }

    /// ---- test seams (wire-integrity + reconnect robustness) ----------

    /// Corrupt the next `n` outbound data frames by flipping one payload
    /// bit after the CRC was computed (the copy on the wire is damaged,
    /// never the caller's — retransmit buffers stay intact).
    void debug_corrupt_payload(std::uint32_t n) noexcept
    {
        corrupt_payload_.store(n, std::memory_order_release);
    }

    /// Corrupt the next `n` outbound frame *headers* (receiver desync:
    /// it must cut the connection and the stream must recover).
    void debug_corrupt_header(std::uint32_t n) noexcept
    {
        corrupt_header_.store(n, std::memory_order_release);
    }

    /// Forcibly close the established connection toward the process
    /// hosting `dst_locality` (reconnect + backoff must heal it).
    /// Returns false when no such connection is open.
    bool debug_drop_connection(std::uint32_t dst_locality);

private:
    /// Hard cap on a frame's payload; longer length prefixes are treated
    /// as stream corruption (decoder never allocates past this).
    static constexpr std::size_t max_frame_bytes = 16u << 20;

    /// Per-connection outbound backlog cap; frames beyond it are dropped
    /// (counted) and recovered by the reliability layer.
    static constexpr std::size_t max_backlog_bytes = 64u << 20;

    /// Reconnect backoff: initial delay, doubled per failure up to the
    /// cap, with deterministic jitter.
    static constexpr std::int64_t reconnect_initial_us = 2'000;
    static constexpr std::int64_t reconnect_max_us = 500'000;

    struct endpoint_info;
    struct connection;
    struct out_frame;

    void io_loop();
    void wake() noexcept;

    // IO-thread helpers (own all fd state).
    void start_connect(connection& c, std::int64_t now_ns);
    void finish_connect(connection& c, std::int64_t now_ns);
    void connect_failed(connection& c, std::int64_t now_ns);
    void close_connection(connection& c, bool lost_established);
    void handle_readable(connection& c);
    void handle_writable(connection& c);
    void accept_pending(endpoint_info& ep);
    void send_hello(connection& c);
    void enqueue_control(std::uint32_t endpoint_index, wire::frame_kind kind,
        serialization::shared_buffer payload);
    void on_frame(connection& c, wire::frame_header const& h,
        serialization::shared_buffer&& payload);
    void on_decode_error(connection& c, wire::decode_error e);
    void deliver_data(connection& c, wire::frame_header const& h,
        serialization::shared_buffer&& payload);
    void barrier_note_entered(std::uint32_t process, std::uint64_t gen);
    void barrier_maybe_release();
    void purge_queue(connection& c, std::uint32_t locality_filter);
    void drop_frame_accounting(out_frame const& f);
    bool release_loopback_slot() noexcept;
    [[nodiscard]] std::int64_t next_poll_timeout_ms(
        std::int64_t now_ns) const noexcept;

    socket_params params_;
    std::uint32_t num_localities_;
    std::uint32_t first_rank_;
    std::uint32_t local_count_;
    std::uint32_t process_count_ = 1;
    std::uint64_t nonce_;    ///< random process identity (self-loop detect)
    std::uint64_t registry_digest_;

    // Endpoint table: one entry per distinct endpoint (process); the
    // per-locality map points into it.
    std::vector<std::unique_ptr<endpoint_info>> endpoints_;
    std::vector<std::uint32_t> endpoint_of_locality_;
    std::uint32_t self_endpoint_ = 0;    ///< first local endpoint index
    std::uint32_t coordinator_endpoint_ = 0;    ///< hosts locality 0

    // Outbound connections, one per endpoint (index-aligned).  Accepted
    // (inbound) connections live in in_conns_.
    std::vector<std::unique_ptr<connection>> out_conns_;
    std::vector<std::unique_ptr<connection>> in_conns_;

    mutable std::mutex mutex_;    ///< handlers, down set, barrier state
    std::vector<delivery_handler> handlers_;
    std::vector<char> down_;

    // Barrier state (guarded by mutex_): generation counters per peer
    // process plus our own; coordinator releases when all arrived.
    std::vector<std::uint64_t> barrier_entered_;    ///< per process
    std::uint64_t barrier_self_gen_ = 0;
    std::uint64_t barrier_released_gen_ = 0;    ///< coordinator bookkeeping
    std::atomic<std::uint64_t> barrier_released_{0};

    int wake_pipe_[2] = {-1, -1};
    std::thread io_thread_;
    std::atomic<bool> stopping_{false};     ///< reject new sends
    std::atomic<bool> io_stop_{false};      ///< terminate the IO loop
    std::atomic<bool> ready_failed_{false};    ///< handshake hard-failed
    std::atomic<bool> eager_connect_{false};    ///< bootstrap connects all
    std::atomic<bool> purge_requested_{false};    ///< drain reconciliation

    // Requests user threads hand to the IO thread (it owns all fd and
    // queue-structure state; see io_loop's service block).
    std::vector<std::uint32_t> pending_purges_;    ///< guarded by mutex_
    std::atomic<std::int32_t> drop_endpoint_{-1};    ///< forced conn drop

    // Custody accounting: queued_frames_ counts data frames accepted by
    // send() and not yet written out (or dropped); loopback_transit_
    // counts frames written toward a *locally hosted* destination that
    // have not yet come back through delivery (they sit in kernel socket
    // buffers).  in_flight() is their sum, which keeps quiesce() exact
    // for in-process wiring.
    std::atomic<std::uint64_t> queued_frames_{0};
    std::atomic<std::uint64_t> loopback_transit_{0};

    std::atomic<std::uint32_t> corrupt_payload_{0};
    std::atomic<std::uint32_t> corrupt_header_{0};

    // transport_stats (data frames).
    std::atomic<std::uint64_t> messages_sent_{0};
    std::atomic<std::uint64_t> bytes_sent_{0};
    std::atomic<std::uint64_t> messages_delivered_{0};
    std::atomic<std::uint64_t> bytes_delivered_{0};
    std::atomic<std::uint64_t> messages_dropped_{0};

    // socket_wire_stats.
    std::atomic<std::uint64_t> wire_bytes_sent_{0};
    std::atomic<std::uint64_t> wire_bytes_received_{0};
    std::atomic<std::uint64_t> wire_frames_sent_{0};
    std::atomic<std::uint64_t> wire_frames_received_{0};
    std::atomic<std::uint64_t> wire_reconnects_{0};
    std::atomic<std::uint64_t> wire_connects_{0};
    std::atomic<std::uint64_t> wire_accepts_{0};
    std::atomic<std::uint64_t> wire_partial_writes_{0};
    std::atomic<std::uint64_t> wire_partial_reads_{0};
    std::atomic<std::uint64_t> wire_crc_drops_{0};
    std::atomic<std::uint64_t> wire_desync_drops_{0};
    std::atomic<std::uint64_t> wire_oversized_drops_{0};
    std::atomic<std::uint64_t> wire_truncated_drops_{0};
    std::atomic<std::uint64_t> wire_connect_failures_{0};
    std::atomic<std::uint64_t> wire_accept_failures_{0};
    std::atomic<std::uint64_t> wire_handshake_failures_{0};
    std::atomic<std::uint64_t> wire_backlog_drops_{0};

    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;
};

}    // namespace coal::net
