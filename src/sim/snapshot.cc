/**
 * @file
 * Snapshot container I/O and config fingerprinting. The field list
 * of each serialized type lives next to the type; this file owns
 * everything format-level.
 */

#include "src/sim/snapshot.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "src/core/network.hh"
#include "src/sim/audit.hh"
#include "src/sim/checksum.hh"
#include "src/sim/config.hh"
#include "src/sim/telemetry.hh"

namespace crnet {

// --- Config fingerprint ------------------------------------------------

std::uint64_t
configFingerprint(const SimConfig& cfg)
{
    // The field list's covered rows in order (each skipped row says
    // why it is skipped), each at its type's width, then the audit bit.
    StateWriter w;
    SimConfig::fields(cfg, [&w](const char*, const auto& field, Fp fp) {
        using T = std::decay_t<decltype(field)>;
        if (fp == Fp::Skip)
            return;
        if constexpr (std::is_enum_v<T>)
            w.u8(field);
        else if constexpr (std::is_same_v<T, bool>)
            w.b(field);
        else if constexpr (std::is_same_v<T, double>)
            w.f64(field);
        else if constexpr (std::is_same_v<T, std::string>)
            w.str(field);
        else if constexpr (std::is_same_v<T, std::uint32_t>)
            w.u32(field);
        else
            w.u64(std::uint64_t{field});
    });
    w.u8(CRNET_AUDIT_ENABLED ? 1 : 0);

    const std::vector<std::uint8_t>& bytes = w.bytes();
    const std::uint32_t lo = crc32(bytes.data(), bytes.size());
    const std::uint32_t hi = crc32(bytes.data(), bytes.size(), lo);
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

// --- Capture / restore -------------------------------------------------

Snapshot
captureSnapshot(const Network& net)
{
    StateWriter w;
    net.saveState(w);
    Snapshot snap;
    snap.at = net.now();
    snap.fingerprint = configFingerprint(net.config());
    snap.payload = w.bytes();
    return snap;
}

std::string
restoreSnapshot(Network& net, const Snapshot& snap)
{
    const std::uint64_t want = configFingerprint(net.config());
    if (snap.fingerprint != want)
        return "config fingerprint mismatch: snapshot was taken from "
               "a differently-configured network (snapshot " +
               std::to_string(snap.fingerprint) + ", target " +
               std::to_string(want) + ")";
    StateReader r(snap.payload);
    net.loadState(r);
    if (!r.done())
        panic("snapshot payload has ", r.remaining(),
              " trailing bytes after restore (version skew or "
              "serialization bug)");
    return "";
}

// --- File container ----------------------------------------------------

namespace {

constexpr char kSnapshotMagic[8] = {'C', 'R', 'N', 'E',
                                    'T', 'S', 'N', 'P'};

std::string
errnoMessage(const std::string& what, const std::string& path)
{
    return what + " " + path + ": " + std::strerror(errno);
}

} // namespace

std::string
atomicWriteFile(const std::string& path,
                const std::vector<std::uint8_t>& bytes)
{
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return errnoMessage("cannot create", tmp);
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
        std::fclose(f);
        return errnoMessage("short write to", tmp);
    }
    if (std::fflush(f) != 0) {
        std::fclose(f);
        return errnoMessage("cannot flush", tmp);
    }
    if (fsync(fileno(f)) != 0) {
        std::fclose(f);
        return errnoMessage("cannot fsync", tmp);
    }
    if (std::fclose(f) != 0)
        return errnoMessage("cannot close", tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return errnoMessage("cannot rename into place:", path);
    // Telemetry: journal/snapshot/status write volume. Registered once
    // per process; observability only, never read by results.
    CRNET_ALLOW("global-state", "cached telemetry handles: "
                "registry-owned atomics, observability only")
    static std::atomic<std::uint64_t>* const writes =
        Telemetry::instance().counter("io.atomic_write_calls");
    CRNET_ALLOW("global-state", "cached telemetry handles: "
                "registry-owned atomics, observability only")
    static std::atomic<std::uint64_t>* const written =
        Telemetry::instance().counter("io.atomic_write_bytes");
    writes->fetch_add(1, std::memory_order_relaxed);
    written->fetch_add(bytes.size(), std::memory_order_relaxed);
    return "";
}

std::string
readFileBytes(const std::string& path, std::vector<std::uint8_t>& out)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return errnoMessage("cannot open", path);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[65536];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
        bytes.insert(bytes.end(), buf, buf + n);
        if (n < sizeof(buf)) {
            if (std::ferror(f) != 0) {
                std::fclose(f);
                return errnoMessage("read error on", path);
            }
            break;
        }
    }
    std::fclose(f);
    out = std::move(bytes);
    return "";
}

std::string
writeSnapshotFile(const std::string& path, const Snapshot& snap)
{
    StateWriter w;
    for (char c : kSnapshotMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kSnapshotVersion);
    w.u64(snap.fingerprint);
    w.u64(snap.at);
    w.u64(snap.payload.size());
    for (std::uint8_t byte : snap.payload)
        w.u8(byte);
    const std::vector<std::uint8_t>& body = w.bytes();
    StateWriter trailer;
    trailer.u32(crc32(body.data(), body.size()));
    std::vector<std::uint8_t> file = body;
    file.insert(file.end(), trailer.bytes().begin(),
                trailer.bytes().end());
    return atomicWriteFile(path, file);
}

std::string
readSnapshotFile(const std::string& path, Snapshot& out)
{
    std::vector<std::uint8_t> file;
    std::string err = readFileBytes(path, file);
    if (!err.empty())
        return err;
    // Fixed header (magic + version + fingerprint + at + payload len)
    // plus the CRC-32 trailer.
    constexpr std::size_t kHeader = 8 + 4 + 8 + 8 + 8;
    if (file.size() < kHeader + 4)
        return "snapshot file " + path + " is truncated (" +
               std::to_string(file.size()) + " bytes)";
    const std::size_t bodyLen = file.size() - 4;
    StateReader tr(file.data() + bodyLen, 4);
    const std::uint32_t wantCrc = tr.u32();
    const std::uint32_t haveCrc = crc32(file.data(), bodyLen);
    if (wantCrc != haveCrc)
        return "snapshot file " + path + " failed its CRC-32 check "
               "(stored " + std::to_string(wantCrc) + ", computed " +
               std::to_string(haveCrc) + ")";
    StateReader r(file.data(), bodyLen);
    for (char c : kSnapshotMagic)
        if (r.u8() != static_cast<std::uint8_t>(c))
            return "snapshot file " + path + " has a bad magic number";
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion)
        return "snapshot file " + path + " has format version " +
               std::to_string(version) + "; this build reads version " +
               std::to_string(kSnapshotVersion);
    Snapshot snap;
    snap.fingerprint = r.u64();
    snap.at = r.u64();
    const std::uint64_t payloadLen = r.u64();
    if (payloadLen != r.remaining())
        return "snapshot file " + path + " payload length mismatch "
               "(header says " + std::to_string(payloadLen) +
               ", file carries " + std::to_string(r.remaining()) + ")";
    snap.payload.assign(file.begin() +
                            static_cast<std::ptrdiff_t>(kHeader),
                        file.begin() +
                            static_cast<std::ptrdiff_t>(bodyLen));
    out = std::move(snap);
    return "";
}

} // namespace crnet
