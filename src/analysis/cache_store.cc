/**
 * @file
 * AnalysisCache::save()/load() and the `icp cache` helpers: the v4
 * segmented cache-file format documented in cache_store.hh
 * (position-independent entries, content-addressed keys; the v1-v3
 * framing still loads, with absolute-form entries degrading to
 * misses).
 *
 * Layered like the SBF container code: a bounds-latched ByteReader
 * and kind-specific payload encoders/decoders at the bottom; a
 * header-walking scanner shared by every consumer (load, save's
 * merge step, inspect, verify, compact) in the middle; and the
 * public operations on top. Every decode path validates enum ranges
 * so a corrupt payload can only ever drop its own entry, never read
 * out of bounds or poison the cache.
 *
 * Concurrency: writers (save, compact) serialize on an exclusive
 * advisory flock over `<path>.lock`; readers (load, inspect,
 * verify) hold it shared across open and scan, so they never see a
 * segment a live writer is still appending. A torn tail left by a
 * crashed writer is still salvaged entry-by-entry. Full rewrites
 * (v1 migration, torn-tail repair, compaction) write a temp file
 * and rename it into place, which keeps existing mmaps valid on the
 * old inode.
 */

#include "analysis/cache_store.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/cache.hh"
#include "isa/bytes.hh"
#include "support/stats.hh"

namespace icp
{

namespace
{

// --- low-level byte IO ----------------------------------------------------

void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/**
 * Bounds-latched sequential reader: the first out-of-range read
 * flips failed() and every later read returns zeros, so decoders can
 * run straight through and check once at the end.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool failed() const { return failed_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        const std::uint32_t v = getU32(data_ + pos_);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        const std::uint64_t v = getU64(data_ + pos_);
        pos_ += 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      len);
        pos_ += len;
        return s;
    }

    const std::uint8_t *
    blob(std::size_t len)
    {
        if (!need(len))
            return nullptr;
        const std::uint8_t *p = data_ + pos_;
        pos_ += len;
        return p;
    }

  private:
    bool
    need(std::uint64_t len)
    {
        if (failed_ || pos_ + len > size_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

// --- payload encoders -----------------------------------------------------

/**
 * Entry-relative address encoding (v4): addresses are stored as
 * wrap-around u64 deltas from the function entry, so a payload is
 * position-independent and decoding at any entry reconstructs
 * consistent absolute addresses (two's-complement round trip).
 * The invalid_addr sentinel (unresolved Instruction::target) is
 * preserved verbatim — it must not shift.
 */
std::uint64_t
relAddr(Addr a, Addr entry)
{
    return a == invalid_addr ? a : a - entry;
}

Addr
absAddr(std::uint64_t rel, Addr entry)
{
    return rel == invalid_addr ? rel : rel + entry;
}

void
encodeInstruction(std::vector<std::uint8_t> &out,
                  const Instruction &in, Addr entry)
{
    putU8(out, static_cast<std::uint8_t>(in.op));
    putU8(out, static_cast<std::uint8_t>(in.rd));
    putU8(out, static_cast<std::uint8_t>(in.rs1));
    putU8(out, static_cast<std::uint8_t>(in.rs2));
    putU8(out, static_cast<std::uint8_t>(in.cond));
    putU8(out, in.memSize);
    putU8(out, in.signedLoad ? 1 : 0);
    putU8(out, in.movShift);
    putU8(out, in.movKeep ? 1 : 0);
    putU8(out, in.formHint);
    putU64(out, static_cast<std::uint64_t>(in.imm));
    putU64(out, relAddr(in.target, entry));
    putU64(out, relAddr(in.addr, entry));
    putU32(out, in.length);
}

void
encodeJumpTable(std::vector<std::uint8_t> &out, const JumpTable &jt,
                Addr entry)
{
    putU64(out, relAddr(jt.jumpAddr, entry));
    putU64(out, relAddr(jt.tableAddr, entry));
    putU32(out, jt.entrySize);
    putU8(out, jt.signedEntries ? 1 : 0);
    putU32(out, jt.shift);
    putU8(out, jt.base.has_value() ? 1 : 0);
    putU64(out, jt.base ? relAddr(*jt.base, entry) : 0);
    putU32(out, static_cast<std::uint32_t>(jt.baseDefAddrs.size()));
    for (Addr a : jt.baseDefAddrs)
        putU64(out, relAddr(a, entry));
    putU64(out, relAddr(jt.loadAddr, entry));
    putU32(out, jt.entryCount);
    putU32(out, static_cast<std::uint32_t>(jt.targets.size()));
    for (Addr a : jt.targets)
        putU64(out, relAddr(a, entry));
    putU8(out, jt.embeddedInCode ? 1 : 0);
}

void
encodeBlock(std::vector<std::uint8_t> &out, const Block &block,
            Addr entry)
{
    putU64(out, relAddr(block.start, entry));
    putU64(out, relAddr(block.end, entry));
    std::uint8_t flags = 0;
    if (block.endsInUnresolvedIndirect)
        flags |= 1;
    if (block.endsFunction)
        flags |= 2;
    if (block.callTarget.has_value())
        flags |= 4;
    putU8(out, flags);
    putU64(out, block.callTarget ? relAddr(*block.callTarget, entry)
                                 : 0);
    putU32(out, static_cast<std::uint32_t>(block.insns.size()));
    for (const Instruction &in : block.insns)
        encodeInstruction(out, in, entry);
    putU32(out, static_cast<std::uint32_t>(block.succs.size()));
    for (const Edge &e : block.succs) {
        putU64(out, relAddr(e.target, entry));
        putU8(out, static_cast<std::uint8_t>(e.kind));
    }
}

std::vector<std::uint8_t>
encodeFunction(const Function &func, std::int64_t toc_delta,
               bool uses_toc)
{
    std::vector<std::uint8_t> out;
    // Position-independence metadata: the entry the analysis ran at
    // (provenance for cross-hit accounting and the canonical decode
    // base) and the toc offset guard for toc-relative code.
    putU64(out, func.entry);
    putU64(out, static_cast<std::uint64_t>(toc_delta));
    putU8(out, uses_toc ? 1 : 0);
    putString(out, func.name);
    putU64(out, relAddr(func.end, func.entry));
    putU8(out, static_cast<std::uint8_t>(func.failure));
    putU32(out, static_cast<std::uint32_t>(func.landingPads.size()));
    for (Addr a : func.landingPads)
        putU64(out, relAddr(a, func.entry));
    putU32(out, static_cast<std::uint32_t>(
                    func.indirectTailCalls.size()));
    for (Addr a : func.indirectTailCalls)
        putU64(out, relAddr(a, func.entry));
    putU32(out, static_cast<std::uint32_t>(func.jumpTables.size()));
    for (const JumpTable &jt : func.jumpTables)
        encodeJumpTable(out, jt, func.entry);
    putU32(out, static_cast<std::uint32_t>(func.blocks.size()));
    for (const auto &[start, block] : func.blocks)
        encodeBlock(out, block, func.entry);
    return out;
}

std::vector<std::uint8_t>
encodeLiveness(const LivenessResult &live, Addr entry)
{
    std::vector<std::uint8_t> out;
    putU64(out, entry);
    putU32(out, static_cast<std::uint32_t>(live.liveIn.size()));
    for (const auto &[addr, regs] : live.liveIn) {
        putU64(out, relAddr(addr, entry));
        putU32(out, regs.raw());
    }
    return out;
}

// --- payload decoders -----------------------------------------------------

bool
validReg(std::uint8_t v)
{
    return v < num_regs || v == static_cast<std::uint8_t>(Reg::none);
}

bool
decodeInstruction(ByteReader &rd, Instruction &in, Addr entry)
{
    const std::uint8_t op = rd.u8();
    const std::uint8_t vrd = rd.u8();
    const std::uint8_t rs1 = rd.u8();
    const std::uint8_t rs2 = rd.u8();
    const std::uint8_t cond = rd.u8();
    in.memSize = rd.u8();
    in.signedLoad = rd.u8() != 0;
    in.movShift = rd.u8();
    in.movKeep = rd.u8() != 0;
    in.formHint = rd.u8();
    in.imm = static_cast<std::int64_t>(rd.u64());
    in.target = absAddr(rd.u64(), entry);
    in.addr = absAddr(rd.u64(), entry);
    in.length = rd.u32();
    if (rd.failed())
        return false;
    if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
        return false;
    if (!validReg(vrd) || !validReg(rs1) || !validReg(rs2))
        return false;
    if (cond > static_cast<std::uint8_t>(Cond::ge) &&
        cond != static_cast<std::uint8_t>(Cond::none))
        return false;
    in.op = static_cast<Opcode>(op);
    in.rd = static_cast<Reg>(vrd);
    in.rs1 = static_cast<Reg>(rs1);
    in.rs2 = static_cast<Reg>(rs2);
    in.cond = static_cast<Cond>(cond);
    return true;
}

bool
decodeJumpTable(ByteReader &rd, JumpTable &jt, Addr entry)
{
    jt.jumpAddr = absAddr(rd.u64(), entry);
    jt.tableAddr = absAddr(rd.u64(), entry);
    jt.entrySize = rd.u32();
    jt.signedEntries = rd.u8() != 0;
    jt.shift = rd.u32();
    const bool has_base = rd.u8() != 0;
    const Addr base = rd.u64();
    if (has_base)
        jt.base = absAddr(base, entry);
    const std::uint32_t ndefs = rd.u32();
    if (ndefs > rd.remaining() / 8)
        return false;
    jt.baseDefAddrs.reserve(ndefs);
    for (std::uint32_t i = 0; i < ndefs; ++i)
        jt.baseDefAddrs.push_back(absAddr(rd.u64(), entry));
    jt.loadAddr = absAddr(rd.u64(), entry);
    jt.entryCount = rd.u32();
    const std::uint32_t ntargets = rd.u32();
    if (ntargets > rd.remaining() / 8)
        return false;
    jt.targets.reserve(ntargets);
    for (std::uint32_t i = 0; i < ntargets; ++i)
        jt.targets.push_back(absAddr(rd.u64(), entry));
    jt.embeddedInCode = rd.u8() != 0;
    return !rd.failed();
}

bool
decodeBlock(ByteReader &rd, Block &block, Addr entry)
{
    block.start = absAddr(rd.u64(), entry);
    block.end = absAddr(rd.u64(), entry);
    const std::uint8_t flags = rd.u8();
    if (flags > 7)
        return false;
    block.endsInUnresolvedIndirect = (flags & 1) != 0;
    block.endsFunction = (flags & 2) != 0;
    const Addr call_target = rd.u64();
    if (flags & 4)
        block.callTarget = absAddr(call_target, entry);
    const std::uint32_t ninsns = rd.u32();
    if (ninsns > rd.remaining() / 38) // encoded instruction size
        return false;
    block.insns.resize(ninsns);
    for (Instruction &in : block.insns) {
        if (!decodeInstruction(rd, in, entry))
            return false;
    }
    const std::uint32_t nsuccs = rd.u32();
    if (nsuccs > rd.remaining() / 9)
        return false;
    block.succs.resize(nsuccs);
    for (Edge &e : block.succs) {
        e.target = absAddr(rd.u64(), entry);
        const std::uint8_t kind = rd.u8();
        if (kind > static_cast<std::uint8_t>(EdgeKind::jumpTable))
            return false;
        e.kind = static_cast<EdgeKind>(kind);
    }
    return !rd.failed();
}

/**
 * Decode a v4 function payload into its canonical form: absolute
 * addresses at the entry it was analyzed at (carried in the payload).
 * Structural validation (sortedness, enum ranges) runs on the
 * rematerialized absolute values — wrap-around deltas round-trip
 * exactly, so this checks the same invariants the encoder wrote.
 */
bool
decodeFunction(ByteReader &rd, Function &func,
               std::int64_t &toc_delta, bool &uses_toc)
{
    const Addr entry = rd.u64();
    toc_delta = static_cast<std::int64_t>(rd.u64());
    uses_toc = rd.u8() != 0;
    func.entry = entry;
    func.name = rd.str();
    func.end = absAddr(rd.u64(), entry);
    const std::uint8_t failure = rd.u8();
    if (failure >
        static_cast<std::uint8_t>(AnalysisFailure::gapsWithRealCode))
        return false;
    func.failure = static_cast<AnalysisFailure>(failure);
    const std::uint32_t npads = rd.u32();
    if (npads > rd.remaining() / 8)
        return false;
    for (std::uint32_t i = 0; i < npads; ++i)
        func.landingPads.insert(absAddr(rd.u64(), entry));
    const std::uint32_t ntails = rd.u32();
    if (ntails > rd.remaining() / 8)
        return false;
    for (std::uint32_t i = 0; i < ntails; ++i)
        func.indirectTailCalls.push_back(absAddr(rd.u64(), entry));
    const std::uint32_t njts = rd.u32();
    if (njts > rd.remaining() / 46) // minimum encoded table size
        return false;
    func.jumpTables.resize(njts);
    for (JumpTable &jt : func.jumpTables) {
        if (!decodeJumpTable(rd, jt, entry))
            return false;
    }
    const std::uint32_t nblocks = rd.u32();
    if (nblocks > rd.remaining() / 33) // minimum encoded block size
        return false;
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        Block block;
        if (!decodeBlock(rd, block, entry))
            return false;
        func.blocks.emplace(block.start, std::move(block));
    }
    // Trailing garbage means the payload was not written by this
    // encoder: reject rather than guess.
    return !rd.failed() && rd.remaining() == 0;
}

bool
decodeLiveness(ByteReader &rd, LivenessResult &live,
               Addr &orig_entry)
{
    orig_entry = rd.u64();
    const std::uint32_t n = rd.u32();
    if (n > rd.remaining() / 12)
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr addr = absAddr(rd.u64(), orig_entry);
        live.liveIn.emplace(addr, RegSet::fromRaw(rd.u32()));
    }
    return !rd.failed() && rd.remaining() == 0;
}

std::vector<std::uint8_t>
encodeDataDeps(const DataDeps &deps, Addr entry)
{
    std::vector<std::uint8_t> out;
    putU64(out, entry);
    putU32(out, static_cast<std::uint32_t>(deps.size()));
    for (const DepRange &r : deps.ranges()) {
        putU64(out, relAddr(r.lo, entry));
        putU64(out, relAddr(r.hi, entry));
        putU64(out, r.hash);
    }
    return out;
}

bool
decodeDataDeps(ByteReader &rd, DataDeps &deps, Addr &orig_entry)
{
    orig_entry = rd.u64();
    const std::uint32_t n = rd.u32();
    if (n > rd.remaining() / 24)
        return false;
    std::vector<DepRange> ranges;
    ranges.reserve(n);
    Addr prev_hi = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        DepRange r;
        r.lo = absAddr(rd.u64(), orig_entry);
        r.hi = absAddr(rd.u64(), orig_entry);
        r.hash = rd.u64();
        // The encoder only writes finalized sets: sorted, disjoint,
        // non-empty ranges. Anything else is not ours.
        if (r.hi <= r.lo || (i > 0 && r.lo < prev_hi))
            return false;
        prev_hi = r.hi;
        ranges.push_back(r);
    }
    if (rd.failed() || rd.remaining() != 0)
        return false;
    deps.setRanges(std::move(ranges));
    return true;
}

// v4 position-independent payload kinds. The absolute-form v1-v3
// kinds (1/2/3) are recognized so old files walk cleanly, but never
// indexed: their payloads cannot be rebased and their keys were
// computed under the old address-folding scheme.
constexpr std::uint8_t entry_kind_function = 4;
constexpr std::uint8_t entry_kind_liveness = 5;
constexpr std::uint8_t entry_kind_datadeps = 6;

bool
knownEntryKind(std::uint8_t kind)
{
    return kind == entry_kind_function ||
           kind == entry_kind_liveness ||
           kind == entry_kind_datadeps;
}

bool
legacyEntryKind(std::uint8_t kind)
{
    return kind >= 1 && kind <= 3;
}

void
appendEntry(std::vector<std::uint8_t> &out, std::uint8_t kind,
            Arch arch, std::uint64_t key,
            const std::uint8_t *payload, std::size_t payload_len,
            std::uint64_t payload_hash)
{
    putU8(out, kind);
    putU8(out, static_cast<std::uint8_t>(arch));
    putU64(out, key);
    putU32(out, static_cast<std::uint32_t>(payload_len));
    putU64(out, payload_hash);
    out.insert(out.end(), payload, payload + payload_len);
}

void
appendEntry(std::vector<std::uint8_t> &out, std::uint8_t kind,
            Arch arch, std::uint64_t key,
            const std::vector<std::uint8_t> &payload)
{
    appendEntry(out, kind, arch, key, payload.data(), payload.size(),
                fnv1a(payload.data(), payload.size()));
}

// --- advisory file lock ---------------------------------------------------

/**
 * RAII flock over `<path>.lock`, exclusive for writers and shared
 * for readers. flock belongs to the open file description, so one
 * thread must never take it twice on one path. Best effort: when the
 * lock file cannot even be created (read-only directory), callers
 * proceed unlocked — exactly as unsafe as v1 was, never less
 * available.
 */
class CacheFileLock
{
  public:
    explicit CacheFileLock(const std::string &cache_path,
                           bool shared = false)
    {
        const std::string lock_path = cache_path + ".lock";
        fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0666);
        if (fd_ >= 0)
            ::flock(fd_, shared ? LOCK_SH : LOCK_EX);
    }

    ~CacheFileLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    CacheFileLock(const CacheFileLock &) = delete;
    CacheFileLock &operator=(const CacheFileLock &) = delete;

  private:
    int fd_ = -1;
};

// --- header-walking scanner -----------------------------------------------

/** One structurally-intact entry located in the file (not decoded,
 *  checksum not yet verified). */
struct RawEntry
{
    std::uint8_t kind = 0;
    std::uint8_t arch = 0;
    std::uint64_t key = 0;
    const std::uint8_t *payload = nullptr;
    std::uint32_t payloadLen = 0;
    std::uint64_t payloadHash = 0;
    std::uint64_t generation = 0;
    std::size_t offset = 0; ///< entry header offset in the file
    /** Entry lives in a fully-intact segment (false: salvaged from
     *  a torn tail — present in memory but not durably on disk). */
    bool completeSegment = true;
};

struct ScanResult
{
    std::uint32_t version = 0;
    std::uint64_t headerGeneration = 0;
    std::uint64_t maxGeneration = 0;
    unsigned segments = 0;       ///< complete segments
    std::size_t validBytes = 0;  ///< prefix ending after last one
    bool torn = false;           ///< trailing torn/garbage segment
    unsigned droppedEntries = 0; ///< structurally lost entries
    std::vector<RawEntry> entries;
    std::vector<CacheFileIssue> issues;

    bool usableV2() const { return version == cache_file_version; }
};

/**
 * Walk the segment chain in @p data, the bytes of a v2+ file from
 * offset @p base on (just past the file header, or where an earlier
 * walk stopped), appending to @p scan. Offsets recorded in entries
 * and issues are file offsets.
 */
void
scanSegments(const std::uint8_t *data, std::size_t size,
             std::size_t base, ScanResult &scan)
{
    ByteReader rd(data, size);
    while (!rd.failed() && rd.remaining() > 0) {
        const std::size_t seg_off = rd.pos();
        if (rd.remaining() < cache_segment_header_bytes) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "trailing %zu bytes are not a complete "
                          "segment header; tail dropped",
                          rd.remaining());
            scan.issues.push_back({"cache-torn", base + seg_off, msg});
            scan.torn = true;
            return;
        }
        const std::uint32_t seg_magic = rd.u32();
        const std::uint32_t count = rd.u32();
        const std::uint64_t body_bytes = rd.u64();
        const std::uint64_t generation = rd.u64();
        const std::uint64_t header_hash = rd.u64();
        if (seg_magic != cache_segment_magic ||
            header_hash != fnv1a(data + seg_off, 24)) {
            scan.issues.push_back(
                {"cache-torn", base + seg_off,
                 "segment header corrupt (bad magic or header "
                 "checksum); tail dropped"});
            scan.torn = true;
            return;
        }

        // Walk the segment's entries. A complete segment must
        // contain exactly `count` entries in `body_bytes`; a torn
        // final segment salvages the prefix that survived.
        const bool complete = body_bytes <= rd.remaining();
        const std::size_t body_limit =
            seg_off + cache_segment_header_bytes +
            static_cast<std::size_t>(
                std::min<std::uint64_t>(body_bytes, rd.remaining()));
        std::uint32_t salvaged = 0;
        bool inconsistent = false;
        for (std::uint32_t i = 0; i < count; ++i) {
            RawEntry e;
            const std::size_t off = rd.pos();
            e.offset = base + off;
            if (body_limit - off < cache_entry_header_bytes) {
                inconsistent = true;
                break;
            }
            e.kind = rd.u8();
            e.arch = rd.u8();
            e.key = rd.u64();
            e.payloadLen = rd.u32();
            e.payloadHash = rd.u64();
            if (e.payloadLen > body_limit - rd.pos()) {
                inconsistent = true;
                break;
            }
            e.payload = rd.blob(e.payloadLen);
            e.generation = generation;
            e.completeSegment = complete;
            scan.entries.push_back(e);
            ++salvaged;
        }
        if (!complete || inconsistent || rd.pos() != body_limit) {
            // Torn append (writer died mid-write) or a lying
            // header: keep what was salvaged, drop the rest of the
            // file. Salvaged entries are marked not-durable so the
            // next save re-appends them.
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "segment torn at offset %zu; %u of %u "
                          "entries salvaged, tail dropped",
                          base + seg_off, salvaged, count);
            scan.issues.push_back({"cache-torn", base + seg_off, msg});
            scan.torn = true;
            scan.droppedEntries += count - salvaged;
            for (std::size_t i = scan.entries.size() - salvaged;
                 i < scan.entries.size(); ++i)
                scan.entries[i].completeSegment = false;
            return;
        }
        ++scan.segments;
        scan.maxGeneration =
            std::max(scan.maxGeneration, generation);
        scan.validBytes = base + rd.pos();
    }
}

/**
 * Walk @p data's headers without decoding or checksumming payloads.
 * Understands v1 (single implicit whole-file segment) and v2
 * (segment chain); anything else yields issues and no entries.
 */
ScanResult
scanBuffer(const std::uint8_t *data, std::size_t size)
{
    ScanResult scan;

    ByteReader rd(data, size);
    const std::uint32_t magic = rd.u32();
    if (rd.failed() || magic != cache_file_magic) {
        scan.issues.push_back(
            {"cache-magic", 0,
             "file does not start with the ICPC cache magic"});
        return scan;
    }
    const std::uint32_t version = rd.u32();
    scan.version = version;

    if (version < cache_file_min_version ||
        version > cache_file_version) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "format version %u (this build reads %u..%u); "
                      "file ignored",
                      version, cache_file_min_version,
                      cache_file_version);
        scan.issues.push_back({"cache-version", 4, msg});
        return scan;
    }

    if (version == 1) {
        // v1: u32 entryCount, then entries to end of file. Loaded
        // read-only; the next save migrates the file to v2.
        scan.issues.push_back(
            {"cache-migrated", 4,
             "version-1 cache file loaded read-only; the next save "
             "rewrites it in the current format"});
        const std::uint32_t count = rd.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            RawEntry e;
            e.offset = rd.pos();
            e.kind = rd.u8();
            e.arch = rd.u8();
            e.key = rd.u64();
            e.payloadLen = rd.u32();
            e.payloadHash = rd.u64();
            e.payload = rd.blob(e.payloadLen);
            e.generation = 1;
            if (rd.failed()) {
                char msg[96];
                std::snprintf(msg, sizeof(msg),
                              "entry %u of %u runs past end of file; "
                              "remaining entries dropped",
                              i + 1, count);
                scan.issues.push_back(
                    {"cache-truncated", e.offset, msg});
                scan.droppedEntries += count - i;
                return scan;
            }
            scan.entries.push_back(e);
        }
        return scan;
    }

    // v2: u64 file generation, then the segment chain.
    scan.headerGeneration = rd.u64();
    scan.validBytes = rd.pos();
    if (!rd.failed())
        scanSegments(data + rd.pos(), size - rd.pos(), rd.pos(), scan);
    return scan;
}

ScanResult
scanFile(const std::shared_ptr<MappedCacheFile> &file)
{
    return scanBuffer(file->data(), file->size());
}

// --- serialization of headers/segments ------------------------------------

std::vector<std::uint8_t>
fileHeader(std::uint64_t generation)
{
    std::vector<std::uint8_t> out;
    putU32(out, cache_file_magic);
    putU32(out, cache_file_version);
    putU64(out, generation);
    return out;
}

/** Wrap @p body (concatenated entries) into a framed segment. */
std::vector<std::uint8_t>
segmentBytes(std::uint32_t entry_count,
             const std::vector<std::uint8_t> &body,
             std::uint64_t generation)
{
    std::vector<std::uint8_t> out;
    out.reserve(cache_segment_header_bytes + body.size());
    putU32(out, cache_segment_magic);
    putU32(out, entry_count);
    putU64(out, body.size());
    putU64(out, generation);
    putU64(out, fnv1a(out.data(), 24));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::uint64_t
fileSizeOf(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/**
 * An open cache file and what identifies it across loads and saves:
 * device and inode (compaction and full rewrites rename a new inode
 * into place) plus a hash of the file header and the first segment
 * header (a recreated file that reuses the inode number starts with
 * a different generation or segment). Appends change neither.
 */
struct CacheFileHandle
{
    int fd = -1;
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::uint64_t size = 0;
    std::uint64_t headHash = 0;

    explicit CacheFileHandle(const std::string &path)
    {
        fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return;
        struct stat st;
        if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
            ::close(fd);
            fd = -1;
            return;
        }
        dev = static_cast<std::uint64_t>(st.st_dev);
        ino = static_cast<std::uint64_t>(st.st_ino);
        size = static_cast<std::uint64_t>(st.st_size);
        std::uint8_t head[cache_file_header_bytes +
                          cache_segment_header_bytes];
        const ::ssize_t n = ::pread(fd, head, sizeof(head), 0);
        headHash = fnv1a(head, n > 0 ? static_cast<std::size_t>(n) : 0);
    }

    ~CacheFileHandle()
    {
        if (fd >= 0)
            ::close(fd);
    }

    CacheFileHandle(const CacheFileHandle &) = delete;
    CacheFileHandle &operator=(const CacheFileHandle &) = delete;

    bool ok() const { return fd >= 0; }
};

/**
 * The durable mark for an entry decoded (unlocked) from the pending
 * entry @p decoded: the live pending entry for @p key keeps it only
 * while it still holds the same payload — a racing load or save may
 * have replaced, marked or dropped it meanwhile.
 */
template <typename PendingMap, typename Pending>
bool
decodedDurable(const PendingMap &pending, std::uint64_t key,
               const Pending &decoded)
{
    auto it = pending.find(key);
    return it != pending.end() &&
           it->second.payloadHash == decoded.payloadHash &&
           it->second.durable;
}

/** Whether @p tracked (an AnalysisCache::TrackedFile) is @p handle. */
template <typename Tracked>
bool
sameFile(const Tracked &tracked, const CacheFileHandle &handle)
{
    return handle.ok() && tracked.dev == handle.dev &&
           tracked.ino == handle.ino &&
           tracked.headHash == handle.headHash;
}

/**
 * Compaction body, caller holds the file lock. Rewrites @p path as
 * one deduplicated segment, newest-generation entries first up to
 * @p max_bytes (0 = keep everything that verifies).
 */
bool
compactLocked(const std::string &path, std::uint64_t max_bytes,
              CacheCompactionResult &out)
{
    auto file = MappedCacheFile::open(path);
    if (!file)
        return false;
    out.bytesBefore = file->size();
    const ScanResult scan = scanFile(file);
    if (!scan.issues.empty() && scan.version == 0)
        return false; // not a cache file; refuse to clobber it

    // Deduplicate by (kind, key) — function, liveness, and data-dep
    // entries share the Function::cacheKey namespace — with the last
    // occurrence winning (it is the newest append), and heal
    // silently-corrupt payloads by verifying each checksum here —
    // compaction is the slow, thorough path.
    std::map<std::pair<std::uint8_t, std::uint64_t>,
             const RawEntry *>
        by_key;
    for (const RawEntry &e : scan.entries) {
        if (fnv1a(e.payload, e.payloadLen) != e.payloadHash)
            continue;
        // Legacy absolute-form kinds can never hit again; compaction
        // is where they finally leave the file. Unknown kinds are
        // kept (forward compat).
        if (legacyEntryKind(e.kind))
            continue;
        by_key[{e.kind, e.key}] = &e;
    }
    out.entriesBefore = static_cast<unsigned>(scan.entries.size());

    // Keep newest generations first until the byte cap.
    std::vector<const RawEntry *> candidates;
    candidates.reserve(by_key.size());
    for (const auto &[key, e] : by_key)
        candidates.push_back(e);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const RawEntry *a, const RawEntry *b) {
                         if (a->generation != b->generation)
                             return a->generation > b->generation;
                         return a->offset < b->offset;
                     });
    std::uint64_t used =
        cache_file_header_bytes + cache_segment_header_bytes;
    std::vector<const RawEntry *> kept;
    for (const RawEntry *e : candidates) {
        const std::uint64_t cost =
            cache_entry_header_bytes + e->payloadLen;
        if (max_bytes != 0 && used + cost > max_bytes &&
            !kept.empty())
            break;
        if (max_bytes != 0 && used + cost > max_bytes)
            break; // even the newest entry alone exceeds the cap
        used += cost;
        kept.push_back(e);
    }

    // Deterministic output order: by key.
    std::sort(kept.begin(), kept.end(),
              [](const RawEntry *a, const RawEntry *b) {
                  if (a->kind != b->kind)
                      return a->kind < b->kind;
                  return a->key < b->key;
              });

    const std::uint64_t generation = scan.maxGeneration + 1;
    std::vector<std::uint8_t> body;
    for (const RawEntry *e : kept)
        appendEntry(body, e->kind, static_cast<Arch>(e->arch),
                    e->key, e->payload, e->payloadLen,
                    e->payloadHash);
    std::vector<std::uint8_t> bytes = fileHeader(generation);
    const std::vector<std::uint8_t> seg = segmentBytes(
        static_cast<std::uint32_t>(kept.size()), body, generation);
    bytes.insert(bytes.end(), seg.begin(), seg.end());

    if (!writeFileAtomic(path, bytes))
        return false;
    out.performed = true;
    out.entriesKept = static_cast<unsigned>(kept.size());
    out.entriesEvicted = static_cast<unsigned>(
        by_key.size() - kept.size());
    out.bytesAfter = bytes.size();
    return true;
}

} // namespace

// --- MappedCacheFile ------------------------------------------------------

std::shared_ptr<MappedCacheFile>
MappedCacheFile::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    struct stat st;
    std::shared_ptr<MappedCacheFile> file;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode))
        file = map(fd, 0, static_cast<std::size_t>(st.st_size));
    ::close(fd);
    return file;
}

std::shared_ptr<MappedCacheFile>
MappedCacheFile::map(int fd, std::size_t offset, std::size_t file_size)
{
    auto file = std::shared_ptr<MappedCacheFile>(
        new MappedCacheFile());
    if (offset >= file_size)
        return file; // nothing to map: valid mapping of zero bytes
    const std::size_t size = file_size - offset;
    // mmap offsets must be page-aligned; map from the page holding
    // @p offset and point data() past the slack.
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t aligned = offset - offset % page;
    const std::size_t len = file_size - aligned;
    void *map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd,
                       static_cast<off_t>(aligned));
    if (map != MAP_FAILED) {
        file->map_ = map;
        file->mapLen_ = len;
        file->data_ = static_cast<const std::uint8_t *>(map) +
                      (offset - aligned);
        file->size_ = size;
        return file;
    }
    // mmap-hostile filesystem: fall back to a plain read.
    file->buffer_.resize(size);
    std::size_t off = 0;
    while (off < size) {
        const ::ssize_t n =
            ::pread(fd, file->buffer_.data() + off, size - off,
                    static_cast<off_t>(offset + off));
        if (n <= 0)
            return nullptr;
        off += static_cast<std::size_t>(n);
    }
    file->data_ = file->buffer_.data();
    file->size_ = size;
    return file;
}

MappedCacheFile::~MappedCacheFile()
{
    if (map_ != nullptr)
        ::munmap(map_, mapLen_);
}

// --- lazy lookups ---------------------------------------------------------

std::shared_ptr<const Function>
AnalysisCache::findFunction(std::uint64_t key, Addr entry,
                            Addr toc_base)
{
    std::unique_lock<std::mutex> lock(mu_);
    Entry<Function> fresh; // a decode the cache does not keep
    const Entry<Function> *e = nullptr;
    auto it = functions_.find(key);
    if (it != functions_.end()) {
        e = &it->second;
    } else {
        auto pit = pendingFunctions_.find(key);
        if (pit == pendingFunctions_.end()) {
            stats_.functionMisses++;
            return nullptr;
        }
        // A lazily-indexed entry: verify its checksum and
        // deserialize it now, outside the lock (the shared mapping
        // keeps the bytes alive; a racing decode of the same key is
        // wasted work, and the durable mark is re-read afterwards).
        // The canonical in-memory form keeps
        // absolute addresses at the entry the payload records
        // (origEntry), not the requested one.
        const PendingEntry pe = pit->second;
        lock.unlock();
        Function func;
        std::int64_t toc_delta = 0;
        bool uses_toc = false;
        ByteReader rd(pe.payload, pe.payloadLen);
        const bool ok =
            fnv1a(pe.payload, pe.payloadLen) == pe.payloadHash &&
            decodeFunction(rd, func, toc_delta, uses_toc);
        lock.lock();
        if (!ok) {
            // Corrupt or undecodable payload: count the miss and
            // re-analyze; the entry heals on the next compaction.
            pendingFunctions_.erase(key);
            stats_.functionMisses++;
            return nullptr;
        }
        func.cacheKey = key;
        Entry<Function> rec;
        rec.arch = pe.arch;
        rec.durable = decodedDurable(pendingFunctions_, key, pe);
        rec.origEntry = func.entry;
        rec.tocDelta = toc_delta;
        rec.usesToc = uses_toc;
        rec.value = std::make_shared<const Function>(std::move(func));
        CacheCounters::global().entriesLazy.fetch_add(
            1, std::memory_order_relaxed);
        if (keepDecoded_) {
            pendingFunctions_.erase(key);
            e = &functions_.emplace(key, std::move(rec)).first->second;
        } else {
            fresh = std::move(rec);
            e = &fresh;
        }
    }

    if (entry == e->origEntry) {
        stats_.functionHits++;
        return e->value;
    }
    // Cross-binary hit: the same code bytes at a different address.
    // Toc-relative code derives targets from tocBase, so the rebase
    // is only exact when the requester's toc offset matches.
    if (e->usesToc &&
        static_cast<std::int64_t>(toc_base) -
                static_cast<std::int64_t>(entry) !=
            e->tocDelta) {
        stats_.functionMisses++;
        return nullptr;
    }
    stats_.functionHits++;
    CacheCounters::global().crossHits.fetch_add(
        1, std::memory_order_relaxed);
    std::shared_ptr<const Function> value = e->value;
    lock.unlock();
    StageTimer timer(Stage::cacheRebase);
    return std::make_shared<const Function>(
        rebaseFunction(*value, entry));
}

std::shared_ptr<const LivenessResult>
AnalysisCache::findLiveness(std::uint64_t key, Addr entry)
{
    std::unique_lock<std::mutex> lock(mu_);
    Entry<LivenessResult> fresh;
    const Entry<LivenessResult> *e = nullptr;
    auto it = liveness_.find(key);
    if (it != liveness_.end()) {
        e = &it->second;
    } else {
        auto pit = pendingLiveness_.find(key);
        if (pit == pendingLiveness_.end()) {
            stats_.livenessMisses++;
            return nullptr;
        }
        const PendingEntry pe = pit->second;
        lock.unlock();
        LivenessResult live;
        Addr orig_entry = 0;
        ByteReader rd(pe.payload, pe.payloadLen);
        const bool ok =
            fnv1a(pe.payload, pe.payloadLen) == pe.payloadHash &&
            decodeLiveness(rd, live, orig_entry);
        lock.lock();
        if (!ok) {
            pendingLiveness_.erase(key);
            stats_.livenessMisses++;
            return nullptr;
        }
        Entry<LivenessResult> rec;
        rec.arch = pe.arch;
        rec.durable = decodedDurable(pendingLiveness_, key, pe);
        rec.origEntry = orig_entry;
        rec.value =
            std::make_shared<const LivenessResult>(std::move(live));
        CacheCounters::global().entriesLazy.fetch_add(
            1, std::memory_order_relaxed);
        if (keepDecoded_) {
            pendingLiveness_.erase(key);
            e = &liveness_.emplace(key, std::move(rec)).first->second;
        } else {
            fresh = std::move(rec);
            e = &fresh;
        }
    }

    stats_.livenessHits++;
    if (entry == e->origEntry)
        return e->value;
    std::shared_ptr<const LivenessResult> value = e->value;
    const Addr orig = e->origEntry;
    lock.unlock();
    StageTimer timer(Stage::cacheRebase);
    return std::make_shared<const LivenessResult>(
        rebaseLiveness(*value, orig, entry));
}

std::shared_ptr<const DataDeps>
AnalysisCache::findDataDeps(std::uint64_t key, Addr entry)
{
    std::unique_lock<std::mutex> lock(mu_);
    Entry<DataDeps> fresh;
    const Entry<DataDeps> *e = nullptr;
    auto it = dataDeps_.find(key);
    if (it != dataDeps_.end()) {
        e = &it->second;
    } else {
        auto pit = pendingDataDeps_.find(key);
        if (pit == pendingDataDeps_.end())
            return nullptr;
        const PendingEntry pe = pit->second;
        lock.unlock();
        DataDeps deps;
        Addr orig_entry = 0;
        ByteReader rd(pe.payload, pe.payloadLen);
        const bool ok =
            fnv1a(pe.payload, pe.payloadLen) == pe.payloadHash &&
            decodeDataDeps(rd, deps, orig_entry);
        lock.lock();
        if (!ok) {
            // Corrupt read-set: the paired function hit degrades to
            // a conservative miss at its consumer.
            pendingDataDeps_.erase(key);
            return nullptr;
        }
        Entry<DataDeps> rec;
        rec.arch = pe.arch;
        rec.durable = decodedDurable(pendingDataDeps_, key, pe);
        rec.origEntry = orig_entry;
        rec.value = std::make_shared<const DataDeps>(std::move(deps));
        CacheCounters::global().entriesLazy.fetch_add(
            1, std::memory_order_relaxed);
        if (keepDecoded_) {
            pendingDataDeps_.erase(key);
            e = &dataDeps_.emplace(key, std::move(rec)).first->second;
        } else {
            fresh = std::move(rec);
            e = &fresh;
        }
    }

    if (entry == e->origEntry)
        return e->value;
    std::shared_ptr<const DataDeps> value = e->value;
    const Addr orig = e->origEntry;
    lock.unlock();
    // Rebased read-set: the consumer re-hashes it against *its*
    // image, which is exactly the cross-binary soundness check.
    return std::make_shared<const DataDeps>(
        rebaseDataDeps(*value, orig, entry));
}

// --- tracked files --------------------------------------------------------

void
AnalysisCache::trackFile(const std::string &path)
{
    auto reset = [](auto &entries) {
        for (auto &[key, e] : entries)
            e.durable = false;
    };
    reset(functions_);
    reset(liveness_);
    reset(dataDeps_);
    reset(pendingFunctions_);
    reset(pendingLiveness_);
    reset(pendingDataDeps_);
    tracked_ = TrackedFile{};
    tracked_.path = path;
}

void
AnalysisCache::noteFileEntry(std::uint8_t kind, std::uint64_t key,
                             std::uint64_t payload_hash)
{
    auto mark = [&](auto &decoded, auto &pending) {
        if (auto it = decoded.find(key); it != decoded.end())
            it->second.durable = true;
        else if (auto pit = pending.find(key); pit != pending.end())
            pit->second.durable = true;
    };
    if (kind == entry_kind_function) {
        mark(functions_, pendingFunctions_);
    } else if (kind == entry_kind_liveness) {
        mark(liveness_, pendingLiveness_);
    } else if (kind == entry_kind_datadeps) {
        // A decoded read-set may have been re-derived under the same
        // code key after a data edit: it is durable only when this
        // (the newest so far) occurrence carries the same payload.
        auto it = dataDeps_.find(key);
        if (it == dataDeps_.end()) {
            mark(dataDeps_, pendingDataDeps_);
            return;
        }
        const std::vector<std::uint8_t> payload =
            encodeDataDeps(*it->second.value, it->second.origEntry);
        it->second.durable =
            fnv1a(payload.data(), payload.size()) == payload_hash;
    }
}

// --- load -----------------------------------------------------------------

CacheLoadReport
AnalysisCache::load(const std::string &path,
                    std::optional<Arch> expect_arch)
{
    CacheLoadReport report;

    const CacheFileLock read_lock(path, /*shared=*/true);
    const CacheFileHandle handle(path);
    if (!handle.ok())
        return report; // absent file: cold start, not an error

    // Resume where an earlier load of this very file stopped: it only
    // ever grows by appended segments until it is replaced.
    std::uint64_t offset = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const TrackedFile &t = tracked_;
        if (t.path == path && t.indexedBytes != 0 &&
            sameFile(t, handle) && t.arch == expect_arch &&
            handle.size >= t.indexedBytes)
            offset = t.indexedBytes;
    }
    if (offset != 0 && offset == handle.size) {
        // Unchanged since it was indexed: nothing to map.
        report.fileRead = true;
        report.fileVersion = cache_file_version;
        return report;
    }

    auto file = MappedCacheFile::map(
        handle.fd, static_cast<std::size_t>(offset),
        static_cast<std::size_t>(handle.size));
    if (!file)
        return report;
    ScanResult scan;
    if (offset != 0) {
        scan.version = cache_file_version;
        scanSegments(file->data(), file->size(),
                     static_cast<std::size_t>(offset), scan);
        if (scan.torn || !scan.issues.empty()) {
            // A damaged tail: load the whole file the usual way.
            offset = 0;
            file = MappedCacheFile::map(
                handle.fd, 0, static_cast<std::size_t>(handle.size));
            if (!file)
                return report;
        }
    }
    if (offset == 0)
        scan = scanFile(file);
    report.fileRead = true;
    report.bytesMapped = file->size();
    CacheCounters::global().bytesMapped.fetch_add(
        file->size(), std::memory_order_relaxed);
    report.fileVersion = scan.version;
    report.segments = scan.segments;
    report.droppedEntries += scan.droppedEntries;
    report.issues = std::move(scan.issues);

    // Validate entry headers eagerly (one cheap pass over headers
    // only — no payload byte is touched), then index survivors for
    // lazy checksum + deserialization on first lookup.
    std::vector<const RawEntry *> accepted;
    accepted.reserve(scan.entries.size());
    std::size_t first_legacy_off = 0;
    for (const RawEntry &e : scan.entries) {
        if (legacyEntryKind(e.kind)) {
            // Absolute-form v1-v3 entry: cannot be rebased and its
            // key predates the content-addressed scheme, so it could
            // never match a lookup anyway. Degrades to a miss; one
            // summarizing issue below instead of per-entry noise.
            if (report.skippedLegacy == 0)
                first_legacy_off = e.offset;
            ++report.skippedLegacy;
            continue;
        }
        if (!knownEntryKind(e.kind)) {
            // Forward compatibility: a newer writer introduced an
            // entry kind this build does not understand. Skipping it
            // only costs re-derivation of whatever it memoized.
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "unknown entry kind %u (newer writer?); "
                          "entry skipped",
                          e.kind);
            report.issues.push_back({"cache-skip", e.offset, msg});
            ++report.skippedUnknown;
            continue;
        }
        if (e.arch > static_cast<std::uint8_t>(Arch::aarch64)) {
            report.issues.push_back(
                {"cache-entry", e.offset,
                 "unknown ISA tag; entry dropped"});
            ++report.droppedEntries;
            continue;
        }
        if (expect_arch &&
            static_cast<Arch>(e.arch) != *expect_arch) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "entry built for %s, image is %s; "
                          "entry dropped",
                          archName(static_cast<Arch>(e.arch)),
                          archName(*expect_arch));
            report.issues.push_back({"cache-arch", e.offset, msg});
            ++report.droppedEntries;
            continue;
        }
        accepted.push_back(&e);
    }
    if (report.skippedLegacy > 0) {
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "%u absolute-form v1-v3 entries skipped "
                      "(re-analysis repopulates them); the next save "
                      "rewrites the file as version %u",
                      report.skippedLegacy, cache_file_version);
        report.issues.push_back(
            {"cache-legacy", first_legacy_off, msg});
    }

    std::lock_guard<std::mutex> lock(mu_);
    // A full load tracks the file and re-derives its durable marks
    // from scratch; a resumed one marks the appended segments' keys
    // (unless another file was loaded or saved meanwhile).
    if (offset == 0)
        trackFile(path);
    const bool tracked = tracked_.path == path &&
                         (offset == 0 || sameFile(tracked_, handle));

    // Decoded in-memory entries win over file entries; among file
    // entries for the same key the newest occurrence (last in file
    // order: save() appends replacements when a function's data
    // read-set changed) wins.
    for (const RawEntry *e : accepted) {
        PendingEntry pe;
        pe.arch = static_cast<Arch>(e->arch);
        pe.payload = e->payload;
        pe.payloadLen = e->payloadLen;
        pe.payloadHash = e->payloadHash;
        pe.file = file;
        pe.durable = tracked && e->completeSegment;
        auto index = [&](auto &decoded, auto &pending,
                         unsigned &loaded) {
            if (decoded.count(e->key)) {
                ++report.skippedExisting;
                if (pe.durable)
                    noteFileEntry(e->kind, e->key, e->payloadHash);
                return;
            }
            if (!pending.count(e->key))
                ++loaded;
            pending[e->key] = std::move(pe);
        };
        if (e->kind == entry_kind_function)
            index(functions_, pendingFunctions_,
                  report.loadedFunctions);
        else if (e->kind == entry_kind_liveness)
            index(liveness_, pendingLiveness_,
                  report.loadedLiveness);
        else
            index(dataDeps_, pendingDataDeps_,
                  report.loadedDataDeps);
    }

    if (tracked) {
        // Only a clean current-version file is tracked: anything
        // else is loaded in full every time, issues and all.
        if (scan.version != cache_file_version || scan.torn ||
            !report.clean()) {
            tracked_ = TrackedFile{};
        } else {
            TrackedFile &t = tracked_;
            t.dev = handle.dev;
            t.ino = handle.ino;
            t.headHash = handle.headHash;
            t.indexedBytes = std::max(t.indexedBytes, handle.size);
            t.checkedBytes = std::max(t.checkedBytes, handle.size);
            t.maxGeneration =
                std::max(t.maxGeneration, scan.maxGeneration);
            t.arch = expect_arch;
        }
    }
    return report;
}

// --- save -----------------------------------------------------------------

bool
AnalysisCache::save(const std::string &path, std::uint64_t max_bytes)
{
    // Writers serialize here; the scans below therefore see every
    // segment earlier writers appended (merge-on-save).
    CacheFileLock file_lock(path);
    const CacheFileHandle handle(path);

    // What the durable marks already describe: the file's first
    // `resume` bytes when this is the file this cache last loaded or
    // saved (0 = nothing, scan it all).
    std::uint64_t resume = 0;
    std::uint64_t indexed = 0;
    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const TrackedFile &t = tracked_;
        if (t.path == path && sameFile(t, handle) &&
            handle.size >= t.checkedBytes) {
            resume = t.checkedBytes;
            indexed = t.indexedBytes;
            generation = t.maxGeneration;
        }
    }

    // Scan what the marks do not cover yet: the segments other
    // writers appended since (usually none), or the whole file.
    std::shared_ptr<MappedCacheFile> file;
    ScanResult scan;
    auto scanFrom = [&](std::uint64_t offset) {
        scan = ScanResult{};
        file = MappedCacheFile::map(
            handle.fd, static_cast<std::size_t>(offset),
            static_cast<std::size_t>(handle.size));
        if (!file)
            return;
        if (offset == 0) {
            scan = scanFile(file);
            return;
        }
        scan.version = cache_file_version;
        scanSegments(file->data(), file->size(),
                     static_cast<std::size_t>(offset), scan);
    };
    if (resume != 0 && handle.size > resume) {
        scanFrom(resume);
        if (!file || scan.torn || !scan.issues.empty())
            resume = 0;
    }
    if (resume == 0) {
        generation = 0;
        if (handle.ok())
            scanFrom(0);
    }
    const bool append_mode =
        resume != 0 || (file && scan.usableV2() && !scan.torn);
    generation = std::max(generation, scan.maxGeneration) + 1;

    // Collect the delta — every entry whose durable mark is clear —
    // under the cache lock, but only as cheap references: values
    // are shared immutable snapshots, and pending (never-decoded)
    // entries stay raw so their payload bytes copy straight through
    // without a decode+re-encode trip. On a fully-warm run this
    // finds nothing. Ordered maps keep output byte-stable for
    // identical contents. The marks are set here, before the write:
    // only this path's writers and readers could observe them, and
    // they wait on the file lock; a failed write forgets the file.
    std::map<std::uint64_t, Entry<Function>> miss_fn;
    std::map<std::uint64_t, Entry<LivenessResult>> miss_lv;
    std::map<std::uint64_t, Entry<DataDeps>> miss_deps;
    std::map<std::uint64_t, PendingEntry> miss_fn_raw, miss_lv_raw,
        miss_deps_raw;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (resume == 0 || tracked_.path != path) {
            // A full scan, or another file was loaded or saved since
            // the check above (one cache, two files at once) and
            // cleared the marks: everything in memory but the tail
            // is appended again, and load() and compaction keep the
            // newest occurrence of each key.
            trackFile(path);
            indexed = 0;
        }
        for (const RawEntry &e : scan.entries)
            if (e.completeSegment)
                noteFileEntry(e.kind, e.key, e.payloadHash);

        auto collect = [&](auto &entries, auto &miss) {
            for (auto &[key, entry] : entries) {
                if (entry.durable)
                    continue;
                entry.durable = true;
                miss.emplace(key, entry);
            }
        };
        for (auto &[key, entry] : dataDeps_) {
            if (entry.durable)
                continue;
            entry.durable = true;
            miss_deps.emplace(key, entry);
            // A read-set the file lacks or holds differently comes
            // from a (re-)analysis, e.g. after a data edit under an
            // unchanged code key: the file's function payload for
            // the key is stale too. Append the fresh one — load()
            // lets the newest occurrence of a key win.
            auto fit = functions_.find(key);
            if (fit != functions_.end()) {
                fit->second.durable = true;
                miss_fn.emplace(key, fit->second);
            }
        }
        collect(pendingDataDeps_, miss_deps_raw);
        collect(functions_, miss_fn);
        collect(pendingFunctions_, miss_fn_raw);
        collect(liveness_, miss_lv);
        collect(pendingLiveness_, miss_lv_raw);
    }

    // The delta segment, functions before liveness, sorted by key.
    std::vector<std::uint8_t> body;
    std::uint32_t count = 0;
    for (const auto &[key, entry] : miss_fn) {
        appendEntry(body, entry_kind_function, entry.arch, key,
                    encodeFunction(*entry.value, entry.tocDelta,
                                   entry.usesToc));
        ++count;
    }
    for (const auto &[key, pe] : miss_fn_raw) {
        appendEntry(body, entry_kind_function, pe.arch, key,
                    pe.payload, pe.payloadLen, pe.payloadHash);
        ++count;
    }
    for (const auto &[key, entry] : miss_lv) {
        appendEntry(body, entry_kind_liveness, entry.arch, key,
                    encodeLiveness(*entry.value, entry.origEntry));
        ++count;
    }
    for (const auto &[key, pe] : miss_lv_raw) {
        appendEntry(body, entry_kind_liveness, pe.arch, key,
                    pe.payload, pe.payloadLen, pe.payloadHash);
        ++count;
    }
    for (const auto &[key, entry] : miss_deps) {
        appendEntry(body, entry_kind_datadeps, entry.arch, key,
                    encodeDataDeps(*entry.value, entry.origEntry));
        ++count;
    }
    for (const auto &[key, pe] : miss_deps_raw) {
        appendEntry(body, entry_kind_datadeps, pe.arch, key,
                    pe.payload, pe.payloadLen, pe.payloadHash);
        ++count;
    }

    bool ok = true;
    if (append_mode && count == 0) {
        // Fully-warm run: nothing new, the file is not touched at
        // all (same bytes, same mtime).
    } else if (append_mode) {
        const std::vector<std::uint8_t> seg =
            segmentBytes(count, body, generation);
        std::ofstream out(path, std::ios::binary | std::ios::app);
        ok = static_cast<bool>(out);
        if (ok) {
            out.write(reinterpret_cast<const char *>(seg.data()),
                      static_cast<std::streamsize>(seg.size()));
            ok = static_cast<bool>(out);
        }
        if (ok)
            CacheCounters::global().bytesAppended.fetch_add(
                seg.size(), std::memory_order_relaxed);
    } else {
        // Fresh file, older-version migration, foreign/torn content:
        // full atomic rewrite. Durable raw entries from any readable
        // scan are copied through (deduplicated per kind, newest
        // occurrence first); everything else comes from memory.
        std::vector<std::uint8_t> full_body;
        std::uint32_t full_count = 0;
        if (scan.version != 0) {
            std::set<std::pair<std::uint8_t, std::uint64_t>> seen;
            for (auto it = scan.entries.rbegin();
                 it != scan.entries.rend(); ++it) {
                const RawEntry &e = *it;
                // Legacy absolute-form kinds are dropped here — they
                // can never hit again; unknown future kinds pass
                // through so a newer writer's entries survive us.
                if (!e.completeSegment || legacyEntryKind(e.kind) ||
                    !seen.insert({e.kind, e.key}).second)
                    continue;
                appendEntry(full_body, e.kind,
                            static_cast<Arch>(e.arch), e.key,
                            e.payload, e.payloadLen, e.payloadHash);
                ++full_count;
            }
        }
        full_body.insert(full_body.end(), body.begin(), body.end());
        full_count += count;
        std::vector<std::uint8_t> bytes = fileHeader(generation);
        const std::vector<std::uint8_t> seg =
            segmentBytes(full_count, full_body, generation);
        bytes.insert(bytes.end(), seg.begin(), seg.end());
        ok = writeFileAtomic(path, bytes);
        if (ok)
            CacheCounters::global().bytesAppended.fetch_add(
                bytes.size(), std::memory_order_relaxed);
    }

    // Size-cap policy: compact in place while still holding the
    // lock (compaction failure never fails the save).
    bool compacted = false;
    if (ok && max_bytes != 0 && fileSizeOf(path) > max_bytes) {
        CacheCompactionResult compaction;
        compactLocked(path, max_bytes, compaction);
        compacted = true;
    }

    // Remember where the file now ends. A resumed save that found
    // no foreign segments extends what load() has indexed, too: the
    // only new bytes are its own entries.
    const CacheFileHandle after(path);
    std::lock_guard<std::mutex> lock(mu_);
    if (tracked_.path != path)
        return ok; // another file is tracked by now
    if (!ok || compacted || !after.ok()) {
        tracked_ = TrackedFile{};
        return ok;
    }
    TrackedFile &t = tracked_;
    if (resume != 0 && resume == handle.size && indexed == resume)
        t.indexedBytes = after.size;
    t.dev = after.dev;
    t.ino = after.ino;
    t.headHash = after.headHash;
    t.checkedBytes = after.size;
    t.maxGeneration = generation - (append_mode && count == 0 ? 1 : 0);
    return ok;
}

// --- inspect / verify / compact -------------------------------------------

CacheFileInfo
inspectCacheFile(const std::string &path)
{
    CacheFileInfo info;
    const CacheFileLock read_lock(path, /*shared=*/true);
    auto file = MappedCacheFile::open(path);
    if (!file)
        return info;
    info.fileRead = true;
    info.fileBytes = file->size();
    ScanResult scan = scanFile(file);
    info.version = scan.version;
    info.generation = scan.maxGeneration;
    info.segments = scan.segments;
    info.issues = std::move(scan.issues);
    std::set<std::pair<std::uint8_t, std::uint64_t>> keys;
    std::set<std::uint64_t> payload_hashes;
    for (const RawEntry &e : scan.entries) {
        if (e.kind == entry_kind_function) {
            ++info.functionEntries;
            info.functionPayloadBytes += e.payloadLen;
        } else if (e.kind == entry_kind_liveness) {
            ++info.livenessEntries;
            info.livenessPayloadBytes += e.payloadLen;
        } else if (e.kind == entry_kind_datadeps) {
            ++info.dataDepsEntries;
            info.dataDepsPayloadBytes += e.payloadLen;
        } else if (legacyEntryKind(e.kind)) {
            ++info.legacyEntries;
        } else {
            ++info.otherEntries;
        }
        info.payloadBytes += e.payloadLen;
        keys.insert({e.kind, e.key});
        payload_hashes.insert(e.payloadHash);
    }
    info.distinctKeys = static_cast<unsigned>(keys.size());
    info.distinctPayloads =
        static_cast<unsigned>(payload_hashes.size());
    return info;
}

CacheLoadReport
verifyCacheFile(const std::string &path)
{
    CacheLoadReport report;
    const CacheFileLock read_lock(path, /*shared=*/true);
    auto file = MappedCacheFile::open(path);
    if (!file)
        return report;
    report.fileRead = true;
    report.bytesMapped = file->size();

    ScanResult scan = scanFile(file);
    report.fileVersion = scan.version;
    report.segments = scan.segments;
    report.droppedEntries += scan.droppedEntries;
    report.issues = std::move(scan.issues);

    for (const RawEntry &e : scan.entries) {
        if (fnv1a(e.payload, e.payloadLen) != e.payloadHash) {
            report.issues.push_back(
                {"cache-checksum", e.offset,
                 "payload checksum mismatch"});
            ++report.droppedEntries;
            continue;
        }
        if (e.arch > static_cast<std::uint8_t>(Arch::aarch64)) {
            report.issues.push_back(
                {"cache-entry", e.offset, "unknown ISA tag"});
            ++report.droppedEntries;
            continue;
        }
        ByteReader rd(e.payload, e.payloadLen);
        if (e.kind == entry_kind_function) {
            Function func;
            std::int64_t toc_delta = 0;
            bool uses_toc = false;
            if (!decodeFunction(rd, func, toc_delta, uses_toc)) {
                report.issues.push_back(
                    {"cache-entry", e.offset,
                     "malformed function payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedFunctions;
        } else if (e.kind == entry_kind_liveness) {
            LivenessResult live;
            Addr orig_entry = 0;
            if (!decodeLiveness(rd, live, orig_entry)) {
                report.issues.push_back(
                    {"cache-entry", e.offset,
                     "malformed liveness payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedLiveness;
        } else if (e.kind == entry_kind_datadeps) {
            DataDeps deps;
            Addr orig_entry = 0;
            if (!decodeDataDeps(rd, deps, orig_entry)) {
                report.issues.push_back(
                    {"cache-entry", e.offset,
                     "malformed data read-set payload"});
                ++report.droppedEntries;
                continue;
            }
            ++report.loadedDataDeps;
        } else if (legacyEntryKind(e.kind)) {
            // Checksum already verified above; the payload itself is
            // not decodable under the v4 contract, by design.
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "absolute-form v1-v3 entry (kind %u); "
                          "degrades to a miss at load",
                          e.kind);
            report.issues.push_back({"cache-legacy", e.offset, msg});
            ++report.skippedLegacy;
        } else {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "unknown entry kind %u (newer writer?); "
                          "entry skipped",
                          e.kind);
            report.issues.push_back({"cache-skip", e.offset, msg});
            ++report.skippedUnknown;
        }
    }
    return report;
}

bool
compactCacheFile(const std::string &path, std::uint64_t max_bytes,
                 CacheCompactionResult &out)
{
    CacheFileLock lock(path);
    return compactLocked(path, max_bytes, out);
}

} // namespace icp
