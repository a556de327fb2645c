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
 * Layout discipline: every field is written little-endian in a fixed
 * order, set by one field list per type (see StateWriter); keyed
 * tables are ordered containers, serialized in their own ascending
 * key order, and a restore refuses a key out of that order. The
 * on-disk container is `CRNETSNP` + version + config fingerprint +
 * payload + CRC-32 trailer, written via write-temp/fsync/rename so a
 * crash mid-write can never leave a torn file in place of a good one.
 */

#ifndef CRNET_SIM_SNAPSHOT_HH
#define CRNET_SIM_SNAPSHOT_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/log.hh"
#include "src/sim/rng.hh"
#include "src/sim/types.hh"

namespace crnet {

class Network;
struct SimConfig;

/** Snapshot container format version (bump on any layout change). */
inline constexpr std::uint32_t kSnapshotVersion = 5;

/**
 * Append-only little-endian byte sink for snapshot payloads.
 *
 * One field list per type: every serialized type has one function
 * template, `serialize(Self& self, Io& io)`, that names each field
 * once. StateWriter runs it on capture (`Self` const) and StateReader
 * on restore, and both streams offer the same calls, so a field list
 * holds no direction test:
 *
 *   - the field vocabulary u8 ... u64, i64, f64, b and str, which
 *     takes the field and names its wire width at every call (a
 *     member's type never picks it: PendingRecvFlit::ejChannel is 16
 *     bits in memory and 32 on the wire);
 *   - seq(), a counted sequence;
 *   - sorted(), a keyed table (a set, a map or a SortedTable) in its
 *     ascending key order;
 *   - same(), values the reader must find equal to its own;
 *   - rng(), an RNG stream;
 *   - optional() and sidecar(), a component that may be absent.
 *
 * Steps only a restore needs (clearing outboxes, rebuilding derived
 * indices) run in the restore entry point, after the shared list.
 * Not performance-critical: it runs between ticks, never inside them.
 */
class StateWriter
{
  public:
    template <typename T>
    void u8(const T& v) { put(static_cast<std::uint8_t>(v), 1); }

    template <typename T>
    void u16(const T& v) { put(static_cast<std::uint16_t>(v), 2); }

    template <typename T>
    void u32(const T& v) { put(static_cast<std::uint32_t>(v), 4); }

    template <typename T>
    void u64(const T& v) { put(static_cast<std::uint64_t>(v), 8); }

    template <typename T>
    void i64(const T& v) { u64(static_cast<std::int64_t>(v)); }

    /** Exact bit pattern; round-trips NaNs and signed zeros. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string& s)
    {
        u64(s.size());
        for (char c : s)
            u8(c);
    }

    /** A counted sequence: its size, then each element via `each`. */
    template <typename Seq, typename Each>
    void
    seq(const Seq& s, Each&& each)
    {
        u64(s.size());
        for (std::size_t i = 0; i < s.size(); ++i)
            each(s[i]);
    }

    /**
     * A keyed table: its size, then each key — each key and value of a
     * table of pairs — via `each`, in the table's own order, which is
     * ascending by key.
     */
    template <typename C, typename Each>
    void
    sorted(const C& c, Each&& each)
    {
        u64(c.size());
        for (const auto& e : c) {
            if constexpr (requires { e.second; })
                each(e.first, e.second);
            else
                each(e);
        }
    }

    /**
     * Values the reader must find equal to its own (a geometry, a
     * container size, a presence bit), each a uint64_t, double or bool
     * whose type names its width. The writer writes `mine`; the reader
     * calls `fail(saved...)` on a mismatch.
     */
    template <typename Fail, typename... Wire>
    void
    same(Fail&&, const Wire&... mine)
    {
        (putWire(mine), ...);
    }

    /** An RNG stream: the four raw xoshiro256** words. */
    void
    rng(const Rng& r)
    {
        for (std::uint64_t word : r.state())
            u64(word);
    }

    /** An owned component that may be absent: a presence bit, then it. */
    template <typename T, typename Each>
    void
    optional(const std::unique_ptr<T>& p, Each&& each)
    {
        b(p != nullptr);
        if (p != nullptr)
            each(std::as_const(*p));
    }

    /**
     * A sidecar the restoring side may run without (a delivery ledger,
     * a tracer): a presence bit, then a length-prefixed block written
     * by `each(StateWriter&, const T&)`, which a reader without one
     * skips wholesale (warning first when `warn_if_skipped`). `what`
     * names it in the reader's messages.
     */
    template <typename P, typename Each>
    void
    sidecar(const P& p, const char*, bool, Each&& each)
    {
        b(p != nullptr);
        if (p == nullptr)
            return;
        StateWriter inner;
        each(inner, std::as_const(*p));
        u64(inner.bytes_.size());
        bytes_.insert(bytes_.end(), inner.bytes_.begin(),
                      inner.bytes_.end());
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    void
    put(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    template <typename Wire>
    void
    putWire(const Wire& v)
    {
        if constexpr (std::is_same_v<Wire, bool>) {
            b(v);
        } else if constexpr (std::is_same_v<Wire, double>) {
            f64(v);
        } else {
            static_assert(std::is_same_v<Wire, std::uint64_t>,
                          "same() takes uint64_t, double or bool");
            u64(v);
        }
    }

    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked reader over a snapshot payload, with StateWriter's
 * calls taking each field by reference.
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

    // --- Framing reads (file headers, journal records) -------------

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

    // --- Field vocabulary (see StateWriter) --------------------------

    template <typename T>
    void u8(T& field) { assign(field, u8()); }

    template <typename T>
    void u16(T& field) { assign(field, u16()); }

    template <typename T>
    void u32(T& field) { assign(field, u32()); }

    template <typename T>
    void u64(T& field) { assign(field, u64()); }

    template <typename T>
    void i64(T& field) { assign(field, i64()); }

    void f64(double& field) { field = f64(); }
    void b(bool& field) { field = b(); }
    void b(std::vector<bool>::reference field) { field = b(); }
    void str(std::string& field) { field = str(); }

    template <typename Seq, typename Each>
    void
    seq(Seq& s, Each&& each)
    {
        s.clear();
        const std::uint64_t n = u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename Seq::value_type e{};
            each(e);
            s.push_back(std::move(e));
        }
    }

    /** Refuses a key that is not above the key before it. */
    template <typename C, typename Each>
    void
    sorted(C& c, Each&& each)
    {
        using Entry = typename C::value_type;
        c.clear();
        const std::uint64_t n = u64();
        if constexpr (requires { typename Entry::second_type; }) {
            std::remove_const_t<typename Entry::first_type> k{}, last{};
            for (std::uint64_t i = 0; i < n; ++i, last = k) {
                typename Entry::second_type v{};
                each(k, v);
                ascending(i, last, k);
                c.insert(c.end(), {k, std::move(v)});
            }
        } else {
            Entry k{}, last{};
            for (std::uint64_t i = 0; i < n; ++i, last = k) {
                each(k);
                ascending(i, last, k);
                c.insert(c.end(), k);
            }
        }
    }

    template <typename Fail, typename... Wire>
    void
    same(Fail&& fail, const Wire&... mine)
    {
        std::tuple<Wire...> saved;
        std::apply([this](auto&... s) { (getWire(s), ...); }, saved);
        if (saved != std::tie(mine...))
            std::apply(fail, saved);
    }

    void
    rng(Rng& r)
    {
        std::array<std::uint64_t, 4> s{};
        for (std::uint64_t& word : s)
            word = u64();
        r.setState(s);
    }

    /** Makes the component if the snapshot has one and it is absent. */
    template <typename T, typename Each>
    void
    optional(std::unique_ptr<T>& p, Each&& each)
    {
        if (!b()) {
            p.reset();
            return;
        }
        if (p == nullptr)
            p = std::make_unique<T>();
        each(*p);
    }

    /**
     * Runs `each(StateReader&, T&)` over the block when `p` is set and
     * checks it consumed exactly the block; skips the block otherwise.
     */
    template <typename P, typename Each>
    void
    sidecar(P& p, const char* what, bool warn_if_skipped, Each&& each)
    {
        if (!b())
            return;
        const std::uint64_t len = u64();
        if (p == nullptr) {
            if (warn_if_skipped)
                warn("snapshot carries a ", what, " but none is "
                     "attached; skipping it");
            skip(len);
            return;
        }
        const std::size_t before = remaining();
        each(*this, *p);
        if (before - remaining() != len)
            panic(what, " block size mismatch on restore");
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

    /** Panics unless the `i`-th key read, `k`, is above `last`. */
    template <typename K>
    static void
    ascending(std::uint64_t i, const K& last, const K& k)
    {
        if (i > 0 && !(last < k))
            panic("restored table key ", k,
                  " is not above the key before it, ", last);
    }

    /** Store a wire value in a field, refusing one it cannot hold. */
    template <typename T, typename W>
    static void
    assign(T& field, W v)
    {
        if constexpr (std::is_integral_v<T> &&
                      !std::is_same_v<T, bool>) {
            if (!std::in_range<T>(v))
                panic("snapshot field value ", v, " does not fit its ",
                      8 * sizeof(T),
                      "-bit field (version skew or serialization bug)");
        }
        field = static_cast<T>(v);
    }

    template <typename Wire>
    void
    getWire(Wire& v)
    {
        if constexpr (std::is_same_v<Wire, bool>)
            v = b();
        else if constexpr (std::is_same_v<Wire, double>)
            v = f64();
        else
            v = u64();
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * A map kept as a vector of (key, value) pairs in ascending key order:
 * one pair per entry, for tables of small entries that grow slowly.
 * sorted() serializes it like any map.
 */
template <typename K, typename V>
using SortedTable = std::vector<std::pair<K, V>>;

/** The value under `key` in `table`, inserted as `absent` if missing. */
template <typename K, typename V>
V&
findOrInsert(SortedTable<K, V>& table, K key, V absent)
{
    auto it = std::lower_bound(
        table.begin(), table.end(), key,
        [](const std::pair<K, V>& e, K k) { return e.first < k; });
    if (it == table.end() || it->first != key)
        it = table.emplace(it, key, absent);
    return it->second;
}

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
 * 64-bit fingerprint over the rows of SimConfig::fields() marked
 * Fp::Cover, in order, plus the audit-build bit. Restore refuses a
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
