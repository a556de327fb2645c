/**
 * @file
 * Versioned, checksummed checkpoint/restore for full simulator state.
 *
 * A snapshot captures everything the Network mutates while ticking —
 * RNG streams, channel/wave rings, router and NIC state, statistics,
 * trace/timeseries/audit sidecars, and the active-set scheduler — so
 * that save-at-cycle-C → restore → continue is byte-identical to an
 * uninterrupted run (docs/ROBUSTNESS.md documents the format and the
 * compatibility policy).
 *
 * Layout discipline: every field is written little-endian in a fixed,
 * documented order; unordered containers are serialized in sorted key
 * order so the payload bytes are independent of hash-table layout.
 * The on-disk container is `CRNETSNP` + version + config fingerprint
 * + payload + CRC-32 trailer, written via write-temp/fsync/rename so
 * a crash mid-write can never leave a torn file in place of a good
 * one.
 */

#ifndef CRNET_SIM_SNAPSHOT_HH
#define CRNET_SIM_SNAPSHOT_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/log.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"

namespace crnet {

class Network;
struct SimConfig;

/** Snapshot container format version (bump on any layout change). */
inline constexpr std::uint32_t kSnapshotVersion = 4;

/**
 * Append-only little-endian byte sink for snapshot payloads.
 *
 * Not performance-critical (runs between ticks, never inside them),
 * so it favors an explicit, greppable field order over clever
 * packing.
 */
class StateWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    /** Exact bit pattern; round-trips NaNs and signed zeros. */
    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        for (char c : s)
            u8(static_cast<std::uint8_t>(c));
    }

    /**
     * Nested length-prefixed block. A reader that does not want the
     * block's contents (e.g. no tracer attached on restore) can skip
     * it wholesale without knowing its internal layout.
     */
    void
    block(const StateWriter& inner)
    {
        u64(inner.bytes_.size());
        bytes_.insert(bytes_.end(), inner.bytes_.begin(),
                      inner.bytes_.end());
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked reader over a snapshot payload.
 *
 * The container CRC is verified before any parsing, so an overrun
 * here means a version-skew or serialization bug, not disk
 * corruption — it panics rather than limping on with garbage state.
 */
class StateReader
{
  public:
    StateReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t>& bytes)
        : StateReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        const std::uint16_t hi = u8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        const std::uint32_t hi = u16();
        return lo | (hi << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        const std::uint64_t hi = u32();
        return lo | (hi << 32);
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    bool
    b()
    {
        return u8() != 0;
    }

    std::string
    str()
    {
        const std::uint64_t len = u64();
        need(len);
        std::string s(reinterpret_cast<const char*>(data_ + pos_),
                      static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return s;
    }

    /** Skip n bytes (e.g. an unwanted length-prefixed block). */
    void
    skip(std::uint64_t n)
    {
        need(n);
        pos_ += static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            panic("snapshot payload overrun: need ", n, " bytes at ",
                  pos_, "/", size_,
                  " (version skew or serialization bug)");
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** An in-memory snapshot: cycle, config identity, and state bytes. */
struct Snapshot
{
    /** Cycle count at capture (restore resumes from here). */
    Cycle at = 0;
    /** Fingerprint of the SimConfig the state belongs to. */
    std::uint64_t fingerprint = 0;
    /** Serialized Network state. */
    std::vector<std::uint8_t> payload;
};

/**
 * 64-bit fingerprint over every semantic SimConfig field (plus the
 * audit-build bit). Excludes `traceFile` (observability sidecar; a
 * restore may attach a different trace path) and `jobs` (campaign
 * parallelism never affects per-trial state). Restore refuses a
 * snapshot whose fingerprint differs from the target network's
 * config: restoring into a differently-shaped network would corrupt
 * state silently.
 */
std::uint64_t configFingerprint(const SimConfig& cfg);

/** Serialize the full mutable state of `net` at its current cycle. */
Snapshot captureSnapshot(const Network& net);

/**
 * Restore `snap` into `net` (which must be freshly constructed from a
 * config with a matching fingerprint). Returns "" on success or a
 * human-readable error ("config fingerprint mismatch ...") on
 * refusal; on refusal `net` is untouched.
 */
std::string restoreSnapshot(Network& net, const Snapshot& snap);

/**
 * Write `snap` to `path` atomically (temp file + fsync + rename).
 * Returns "" on success or an error message.
 */
std::string writeSnapshotFile(const std::string& path,
                              const Snapshot& snap);

/**
 * Read and validate a snapshot file: magic, version, CRC-32 trailer.
 * Returns "" and fills `out` on success; otherwise an error message
 * (truncated file, bad magic, version or CRC mismatch) and `out` is
 * untouched. Never panics on corrupt input — callers decide whether
 * to fall back or abort.
 */
std::string readSnapshotFile(const std::string& path, Snapshot& out);

// --- Shared field-group helpers (used by component saveState/loadState)

/** RNG stream: the four raw xoshiro256** words. */
inline void
saveRng(StateWriter& w, const Rng& rng)
{
    for (std::uint64_t word : rng.state())
        w.u64(word);
}

inline void
loadRng(StateReader& r, Rng& rng)
{
    std::array<std::uint64_t, 4> s{};
    for (auto& word : s)
        word = r.u64();
    rng.setState(s);
}

struct WireFlit;
struct WormHeader;
struct PendingMessage;
struct NetworkStats;

void saveFlit(StateWriter& w, const WireFlit& f);
void loadFlit(StateReader& r, WireFlit& f);

void saveHeader(StateWriter& w, const WormHeader& h);
void loadHeader(StateReader& r, WormHeader& h);

void saveMessage(StateWriter& w, const PendingMessage& m);
void loadMessage(StateReader& r, PendingMessage& m);

/** Every counter, accumulator and the latency histogram, in order. */
void saveNetworkStats(StateWriter& w, const NetworkStats& s);
void loadNetworkStats(StateReader& r, NetworkStats& s);

// --- Crash-safe file primitives (shared with the campaign journal) ---

/**
 * Write `bytes` to `path` via temp file + fflush + fsync + rename, so
 * a crash at any point leaves either the old file or the new one,
 * never a torn mix. Returns "" on success or an errno-derived error.
 */
std::string atomicWriteFile(const std::string& path,
                            const std::vector<std::uint8_t>& bytes);

/**
 * Read a whole file into `out`. Returns "" on success or an error
 * message ("no such file" is an error too — callers treat a missing
 * journal/snapshot as a cold start).
 */
std::string readFileBytes(const std::string& path,
                          std::vector<std::uint8_t>& out);

} // namespace crnet

#endif // CRNET_SIM_SNAPSHOT_HH
