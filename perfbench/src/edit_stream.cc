/**
 * @file
 * edit_stream: open loop, one generator thread, against a forked
 * `icp serve` daemon. Three persistent connections, one per resident
 * binary: libxul and two libcommon binaries sharing one cache file.
 * Requests arrive as a seeded Poisson stream: a `rewrite` after an
 * edit (a one-function code edit, a jump-table-entry data edit or an
 * unread-data-byte edit at a seeded site, or the revert of the edit
 * applied last) or a
 * `lint` of the current state. Latency is timed from when a request
 * was due. The generator writes a binary's file only while no
 * request is in flight on that binary's connection.
 *
 * After the stream, every (binary, edit state) the daemon served is
 * rewritten cold and byte-compared with the daemon's output. The
 * traced run replays the same request sequence directly through
 * RewriteSession, so session time and serve overhead separate.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>

#include "analysis/datadeps.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "isa/arch.hh"
#include "rewrite/session.hh"
#include "serve/protocol.hh"
#include "support/random.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace icp;

namespace icpbench
{

namespace
{

enum Kind : std::uint8_t
{
    kLint = 0,
    kCode = 1,
    kTable = 2,
    kData = 3,
};

const char *
kindName(std::uint8_t k)
{
    switch (k) {
      case kLint: return "lint";
      case kCode: return "code";
      case kTable: return "table";
      case kData: return "data";
    }
    return "?";
}

/** One edit site: the bytes at addr are a unedited, b edited. */
struct Site
{
    std::uint8_t kind = kCode;
    Addr addr = 0;
    std::vector<std::uint8_t> a, b;
};

struct Bin
{
    std::string name;
    std::string path;     ///< the input file the daemon reads
    std::string cache;    ///< shared cache file ("" = none)
    BinaryImage base;
    std::vector<Site> sites;
    std::vector<std::vector<std::uint8_t>> stateBlobs; ///< see imageAt
    std::uint64_t insns = 0;
    double sizeIncrease = 0.0;
    std::uint64_t trampolines = 0; ///< of the unedited binary
    std::uint64_t outBytes = 0;    ///< of the unedited binary
    std::uint32_t state = 0;
};

struct Req
{
    double due = 0;   ///< ms after the rung started
    std::uint8_t bin = 0;
    std::uint8_t kind = kLint;
    std::uint8_t site = 0;
    double noticed = -1, sent = -1, done = -1;
    std::uint32_t state = 0; ///< the binary's state the reply is for
    bool ok = false;
};

RewriteOptions
serveOptions(const Bin &b)
{
    // What the daemon builds from our request fields.
    RewriteOptions opts = baseOptions(RewriteMode::funcPtr);
    opts.instrumentation.countBlocks = true;
    opts.cachePath = b.cache;
    return opts;
}

ServeMessage
request(const Bin &b, const std::string &verb, const std::string &out)
{
    ServeMessage m;
    m.verb = verb;
    m.set("path", b.path);
    m.set("mode", "func-ptr");
    m.set("threads", std::uint64_t{1});
    m.set("count_blocks", std::uint64_t{1});
    if (!b.cache.empty())
        m.set("cache_file", b.cache);
    if (!out.empty())
        m.set("out", out);
    return m;
}

/**
 * Code sites: an AddImm whose imm^1 re-encodes at the same length,
 * in a function the rewrite relocates (@p instrumented), so the edit
 * re-emits exactly that function.
 */
std::vector<Site>
codeCandidates(const BinaryImage &img, const std::set<Addr> &instrumented)
{
    std::vector<Site> out;
    const Codec &codec = *img.archInfo().codec;
    for (const Symbol *sym : img.functionSymbols()) {
        if (!instrumented.count(sym->addr))
            continue;
        std::vector<std::uint8_t> body;
        if (!img.readBytes(sym->addr, sym->size, body))
            continue;
        Addr addr = sym->addr;
        std::size_t off = 0;
        while (off < body.size()) {
            Instruction in;
            if (!codec.decode(body.data() + off, body.size() - off, addr,
                              in) ||
                in.length == 0)
                break;
            if (in.op == Opcode::AddImm && in.imm > 1) {
                Instruction edit = in;
                edit.imm = in.imm ^ 1;
                std::vector<std::uint8_t> enc;
                if (codec.encode(edit, addr, enc) && enc.size() == in.length) {
                    Site s;
                    s.kind = kCode;
                    s.addr = addr;
                    s.a.assign(body.begin() + static_cast<long>(off),
                               body.begin() + static_cast<long>(off + in.length));
                    s.b = enc;
                    out.push_back(std::move(s));
                    break; // one per function
                }
            }
            off += in.length;
            addr += in.length;
        }
    }
    return out;
}

/**
 * Jump-table sites: overwrite one entry with another entry of the
 * same table, so the table still decodes to valid block heads.
 * Entries whose target appears twice come first: replacing one keeps
 * the table's target set, which the selective re-emission needs.
 * Without such an entry the rewrite falls back to a full emission.
 */
std::vector<Site>
tableCandidates(const BinaryImage &img, const CfgModule &cfg)
{
    std::vector<Site> out;
    for (const bool same_set : {true, false}) {
      if (!out.empty())
          break;
      for (const auto &[entry, func] : cfg.functions) {
        (void)entry;
        for (const JumpTable &jt : func.jumpTables) {
            if (jt.embeddedInCode || jt.entryCount < 2 ||
                jt.targets.size() < jt.entryCount)
                continue;
            const Section *sec = img.sectionAt(jt.tableAddr);
            if (!sec || sec->executable)
                continue;
            const std::size_t base =
                static_cast<std::size_t>(jt.tableAddr - sec->addr);
            if (base + jt.entryCount * jt.entrySize > sec->bytes.size())
                continue;
            for (unsigned i = 0; i < jt.entryCount && out.size() < 64; ++i) {
                unsigned dup = 0;
                for (unsigned k = 0; k < jt.entryCount; ++k)
                    dup += jt.targets[k] == jt.targets[i];
                if (same_set && dup < 2)
                    continue;
                for (unsigned j = 0; j < jt.entryCount; ++j) {
                    if (jt.targets[j] == jt.targets[i])
                        continue;
                    Site s;
                    s.kind = kTable;
                    s.addr = jt.tableAddr + i * jt.entrySize;
                    const auto di = sec->bytes.begin() +
                                    static_cast<long>(base + i * jt.entrySize);
                    const auto dj = sec->bytes.begin() +
                                    static_cast<long>(base + j * jt.entrySize);
                    s.a.assign(di, di + jt.entrySize);
                    s.b.assign(dj, dj + jt.entrySize);
                    out.push_back(std::move(s));
                    break;
                }
                break; // one per table
            }
        }
      }
    }
    return out;
}

/**
 * Data sites: a .rodata byte nothing depends on — outside every
 * recorded read-set, runtime-relocation slot, donated scratch range
 * and rewritten pointer cell.
 */
std::vector<Site>
dataCandidates(RewriteSession &session)
{
    std::vector<Site> out;
    DepIndex index;
    for (const auto &[entry, func] : session.analyze().functions)
        index.add(entry, func.dataDeps);
    index.build();
    const RewriteManifest &manifest = session.lastResult().manifest;
    const BinaryImage &img = session.input();
    auto claimed = [&](Addr a) {
        std::set<Addr> owners;
        index.overlapping(a, a + 1, owners);
        if (!owners.empty())
            return true;
        for (const auto &[lo, len] : manifest.scratchRanges)
            if (a >= lo && a < lo + len)
                return true;
        for (const Relocation &rel : img.relocs)
            if (a >= rel.site && a < rel.site + 8)
                return true;
        for (const FuncPtrPatch &p : manifest.funcPtrs)
            if (p.kind == FuncPtrPatch::Kind::dataCell && a >= p.site &&
                a < p.site + 8)
                return true;
        return false;
    };
    for (const Section &sec : img.sections) {
        if (sec.kind != SectionKind::rodata || !sec.loadable)
            continue;
        for (std::size_t at = sec.bytes.size(); at-- > 0 && out.size() < 256;) {
            const Addr a = sec.addr + at;
            if (claimed(a))
                continue;
            Site s;
            s.kind = kData;
            s.addr = a;
            s.a = {sec.bytes[at]};
            s.b = {static_cast<std::uint8_t>(sec.bytes[at] ^ 0x5a)};
            out.push_back(std::move(s));
        }
    }
    return out;
}

/** State 0 is the unedited binary; state i + 1 has site i applied. */
BinaryImage
imageAt(const Bin &b, std::uint32_t state)
{
    BinaryImage img = b.base;
    if (state != 0)
        img.writeBytes(b.sites[state - 1].addr, b.sites[state - 1].b);
    return img;
}

/**
 * Apply @p r's edit to @p b: from the unedited state it applies the
 * drawn site, otherwise it reverts the applied one. Either way the
 * input changes at exactly one site, and the states stay few enough
 * to check every one against a cold rewrite.
 */
void
applyEdit(Bin &b, Req &r)
{
    if (b.state == 0) {
        b.state = r.site + 1u;
    } else {
        r.site = static_cast<std::uint8_t>(b.state - 1);
        r.kind = b.sites[r.site].kind;
        b.state = 0;
    }
    r.state = b.state;
}

/** Build the three binaries and their seeded edit sites. */
bool
makeBins(std::uint64_t seed, const std::string &work, std::vector<Bin> &bins)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 47);
    std::vector<ProgramSpec> specs;
    specs.push_back(libxulProfile());
    for (ProgramSpec &s : libcommonCorpus(Arch::x64, 2))
        specs.push_back(std::move(s));
    const std::uint64_t vary = rng.next();
    for (ProgramSpec &s : specs) {
        // An unread .rodata tail: the string-table shape of a data
        // edit no function reads.
        s.rodataPadding = 4096;
        varySpec(s, vary, 80, 120);
    }
    const char *names[] = {"libxul", "libcommon0", "libcommon1"};
    bins.clear();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Bin b;
        b.name = names[i];
        b.path = work + "/" + b.name + ".sbf";
        b.cache = i == 0 ? "" : work + "/libcommon.icpc";
        b.base = compileProgram(specs[i]);

        RewriteSession session(b.base);
        RewriteOptions opts = serveOptions(b);
        opts.cachePath.clear();
        const RewriteResult &rw = session.rewrite(opts);
        if (!rw.ok) {
            std::fprintf(stderr, "edit_stream: %s does not rewrite\n",
                         b.name.c_str());
            return false;
        }
        b.sizeIncrease = rw.stats.sizeIncrease();
        b.trampolines = rw.stats.trampolines;
        b.outBytes = rw.image.serialize().size();
        for (const auto &[entry, f] : session.analyze().functions) {
            (void)entry;
            for (const auto &[start, blk] : f.blocks) {
                (void)start;
                b.insns += blk.insns.size();
            }
        }
        auto pick = [&](std::vector<Site> cands, unsigned n) {
            for (unsigned k = 0; k < n && !cands.empty(); ++k) {
                const std::size_t at = rng.range(0, cands.size() - 1);
                b.sites.push_back(cands[at]);
                cands.erase(cands.begin() + static_cast<long>(at));
            }
        };
        // Many sites per kind: edit cost differs from site to site, and
        // a few sites would make each seed's latency that of its draw.
        pick(codeCandidates(b.base, rw.manifest.instrumented), 32);
        pick(tableCandidates(b.base, session.analyze()), 4);
        pick(dataCandidates(session), 4);
        if (b.sites.empty()) {
            std::fprintf(stderr, "edit_stream: no edit site in %s\n",
                         b.name.c_str());
            return false;
        }
        for (std::uint32_t st = 0; st <= b.sites.size(); ++st)
            b.stateBlobs.push_back(imageAt(b, st).serialize());
        bins.push_back(std::move(b));
    }
    return true;
}

/**
 * A seeded Poisson schedule of @p seconds at @p rps. @p states is
 * each binary's edit state when the schedule starts; it is advanced
 * as the daemon will see it.
 */
std::vector<Req>
makeSchedule(Rng &rng, const std::vector<Bin> &bins, double rps, double seconds,
             std::vector<std::uint32_t> &states)
{
    // Exactly rps * seconds arrivals, uniform over the window: a
    // Poisson process conditioned on its count, so every seed offers
    // the same load.
    const std::size_t n = static_cast<std::size_t>(std::lround(rps * seconds));
    std::vector<double> due(n);
    for (double &t : due)
        t = rng.uniform() * seconds * 1000.0;
    std::sort(due.begin(), due.end());

    // The mix is drawn in shuffled blocks: per binary 4 lints and 6
    // edits. Every other edit of a binary reverts the one before, so
    // the applied kinds come from a per-binary bag of 4 code, 1 table
    // and 1 data edits. Fixed proportions keep the latency medians,
    // which mix fast and slow binaries and edit kinds, independent of
    // the seed.
    static const std::uint8_t applied[] = {kCode, kCode, kCode, kCode, kTable,
                                           kData};
    std::vector<std::pair<std::uint8_t, bool>> block; // (binary, lint)
    std::vector<std::vector<std::uint8_t>> bags(bins.size());
    auto shuffle = [&](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.range(0, i - 1)]);
    };
    std::vector<Req> out;
    for (double t : due) {
        if (block.empty()) {
            for (std::size_t bi = 0; bi < bins.size(); ++bi)
                for (int k = 0; k < 10; ++k)
                    block.emplace_back(static_cast<std::uint8_t>(bi), k < 4);
            shuffle(block);
        }
        Req r;
        r.due = t;
        r.bin = block.back().first;
        const bool lint = block.back().second;
        block.pop_back();
        const Bin &b = bins[r.bin];
        std::uint32_t &state = states[r.bin];
        if (lint) {
            r.kind = kLint;
        } else if (state != 0) {
            r.site = static_cast<std::uint8_t>(state - 1); // the revert
            r.kind = b.sites[r.site].kind;
            state = 0;
        } else {
            std::vector<std::uint8_t> &bag = bags[r.bin];
            if (bag.empty()) {
                bag.assign(std::begin(applied), std::end(applied));
                shuffle(bag);
            }
            const std::uint8_t want = bag.back();
            bag.pop_back();
            std::vector<std::uint8_t> match;
            for (std::size_t i = 0; i < b.sites.size(); ++i)
                if (b.sites[i].kind == want)
                    match.push_back(static_cast<std::uint8_t>(i));
            if (match.empty())
                for (std::size_t i = 0; i < b.sites.size(); ++i)
                    if (b.sites[i].kind == kCode)
                        match.push_back(static_cast<std::uint8_t>(i));
            r.site = match[rng.range(0, match.size() - 1)];
            r.kind = b.sites[r.site].kind;
            state = r.site + 1u;
        }
        out.push_back(r);
    }
    return out;
}

/** The dirty/emitted counts each edit kind must give. */
bool
expectedCounts(std::uint8_t kind, std::uint64_t dirty, std::uint64_t emitted)
{
    if (kind == kData)
        return dirty == 0 && emitted == 0;
    if (kind == kTable) // a full re-emission when the target set changed
        return dirty == 1 && emitted >= 1;
    return dirty == 1 && emitted == 1;
}

/**
 * Record the dirty/emitted counts of one edit as determinism counts
 * (edit.<binary>.<kind><site>.dirty / .emitted). Every edit at one
 * site must give the same counts; false when this one differs from
 * an earlier one.
 */
bool
noteCounts(Result &res, const Bin &b, const Req &r, std::uint64_t dirty,
           std::uint64_t emitted)
{
    const std::string key = "edit." + b.name + "." + kindName(r.kind) +
                            std::to_string(r.site);
    auto [d, d_new] = res.determinism.emplace(key + ".dirty",
                                              static_cast<double>(dirty));
    auto [e, e_new] = res.determinism.emplace(key + ".emitted",
                                              static_cast<double>(emitted));
    return (d_new || d->second == static_cast<double>(dirty)) &&
           (e_new || e->second == static_cast<double>(emitted));
}

std::string
outPath(const std::string &work, const Bin &b, std::uint32_t state)
{
    return work + "/out." + b.name + "." + std::to_string(state) + ".sbf";
}

// ---------------------------------------------------------------- daemon

class Daemon
{
  public:
    Daemon(const std::string &icp, const std::string &sock) : sock_(sock)
    {
        std::remove(sock.c_str());
        std::fflush(stdout);
        std::fflush(stderr);
        pid_ = fork();
        if (pid_ == 0) {
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                dup2(devnull, 1);
            execl(icp.c_str(), icp.c_str(), "serve", sock.c_str(),
                  "--timeout-ms", "300000", static_cast<char *>(nullptr));
            _exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect, retrying while the daemon starts; -1 on failure. */
    int
    connect(double timeout_ms = 10000) const
    {
        const auto t0 = Clock::now();
        while (msSince(t0) < timeout_ms) {
            const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
            sockaddr_un sa = {};
            sa.sun_family = AF_UNIX;
            std::snprintf(sa.sun_path, sizeof(sa.sun_path), "%s",
                          sock_.c_str());
            if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                                     sizeof(sa)) == 0)
                return fd;
            if (fd >= 0)
                close(fd);
            if (pid_ <= 0)
                return -1;
            usleep(2000);
        }
        return -1;
    }

    bool
    call(const ServeMessage &req, ServeMessage &reply) const
    {
        std::string err;
        return serveCall(sock_, req, reply, err, 120000);
    }

    /** Shut down and reap; returns the daemon's peak RSS in MiB. */
    double
    stop()
    {
        if (pid_ <= 0)
            return rssMb_;
        ServeMessage req, reply;
        req.verb = "shutdown";
        call(req, reply);
        int status = 0;
        struct rusage ru = {};
        const auto t0 = Clock::now();
        bool reaped = false;
        while (!reaped) {
            const pid_t r = wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_ || (r < 0 && errno != EINTR)) {
                reaped = true;
                break;
            }
            const double waited = msSince(t0);
            if (waited > 20000)
                kill(pid_, SIGKILL);
            else if (waited > 10000)
                kill(pid_, SIGTERM);
            usleep(5000);
        }
        rssMb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
        pid_ = -1;
        return rssMb_;
    }

  private:
    std::string sock_;
    pid_t pid_ = -1;
    double rssMb_ = 0;
};

/** Write @p blob as @p path with a never-repeating mtime stamp. */
bool
writeInput(const std::string &path, const std::vector<std::uint8_t> &blob)
{
    static std::uint64_t stamp = 0;
    if (!writeFile(path, blob))
        return false;
    ++stamp;
    struct timespec times[2];
    times[0].tv_sec = 1000000000;
    times[0].tv_nsec = 0;
    times[1].tv_sec = static_cast<time_t>(1000000000 + stamp / 1000000000);
    times[1].tv_nsec = static_cast<long>(stamp % 1000000000);
    return utimensat(AT_FDCWD, path.c_str(), times, 0) == 0;
}

struct Conn
{
    int fd = -1;
    std::deque<std::size_t> pending, inflight;
};

void
closeAll(std::vector<Conn> &conns)
{
    for (Conn &c : conns)
        if (c.fd >= 0)
            close(c.fd);
    conns.clear();
}

/**
 * Open one persistent connection per binary and open the binary
 * (cold) over it, so each session is created and then served by the
 * same connection.
 */
bool
openAll(const Daemon &d, std::vector<Bin> &bins, std::vector<Conn> &conns,
        const std::string &work)
{
    closeAll(conns);
    conns.resize(bins.size());
    for (std::size_t i = 0; i < bins.size(); ++i) {
        Bin &b = bins[i];
        b.state = 0;
        conns[i].fd = d.connect(); // waits until the daemon listens
        if (conns[i].fd < 0 || !writeInput(b.path, b.stateBlobs[0])) {
            std::fprintf(stderr, "edit_stream: the daemon did not start\n");
            return false;
        }
        ServeMessage reply;
        std::string err;
        if (!writeServeFrame(conns[i].fd,
                             request(b, "rewrite", outPath(work, b, 0)), 30000) ||
            readServeFrame(conns[i].fd, reply, 120000, err) != FrameStatus::ok ||
            reply.verb != "ok") {
            std::fprintf(stderr, "edit_stream: open %s failed: %s%s\n",
                         b.name.c_str(), err.c_str(),
                         reply.get("error").c_str());
            return false;
        }
    }
    return true;
}

struct RungResult
{
    double rps = 0;
    bool aborted = false;
    std::vector<double> editMs, lintMs, editServiceMs, queueMs, lagMs;
    std::vector<std::vector<double>> binServiceMs; ///< editServiceMs per binary
    double finalLagMs = 0;
    std::size_t issued = 0;
};

/**
 * Drive one rung of the open loop. Requests that never got sent
 * because the backlog grew past @p abort_lag_ms are not attempted.
 */
RungResult
runRung(std::vector<Conn> &conns, std::vector<Bin> &bins, std::vector<Req> &sched,
        double rps, const std::string &work, double abort_lag_ms,
        std::set<std::pair<int, std::uint32_t>> &served, Result &res)
{
    RungResult out;
    out.rps = rps;
    out.binServiceMs.resize(bins.size());
    const auto t0 = Clock::now();
    std::size_t next = 0;
    bool stop_issuing = false;
    auto now_ms = [&] { return msSince(t0); };
    for (;;) {
        double now = now_ms();
        while (!stop_issuing && next < sched.size() && sched[next].due <= now) {
            sched[next].noticed = now;
            conns[sched[next].bin].pending.push_back(next);
            ++next;
        }
        for (std::size_t c = 0; c < conns.size(); ++c) {
            Conn &conn = conns[c];
            Bin &b = bins[c];
            while (!conn.pending.empty()) {
                Req &r = sched[conn.pending.front()];
                if (r.kind != kLint && !conn.inflight.empty())
                    break;
                ServeMessage msg;
                if (r.kind == kLint) {
                    msg = request(b, "lint", "");
                } else {
                    applyEdit(b, r);
                    if (!writeInput(b.path, b.stateBlobs[b.state]))
                        res.checkFailed("cannot write " + b.path);
                    msg = request(b, "rewrite", outPath(work, b, b.state));
                }
                r.state = b.state;
                r.sent = now_ms();
                res.attempt();
                ++out.issued;
                if (!writeServeFrame(conn.fd, msg, 30000)) {
                    res.fail("send failed on " + b.name);
                    conn.pending.pop_front();
                    continue;
                }
                conn.inflight.push_back(conn.pending.front());
                conn.pending.pop_front();
            }
        }
        bool idle = true;
        double oldest = now;
        for (Conn &conn : conns) {
            if (!conn.pending.empty()) {
                idle = false;
                oldest = std::min(oldest, sched[conn.pending.front()].due);
            }
            if (!conn.inflight.empty()) {
                idle = false;
                oldest = std::min(oldest, sched[conn.inflight.front()].due);
            }
        }
        if (idle && (stop_issuing || next == sched.size()))
            break;
        if (!stop_issuing && now - oldest > abort_lag_ms) {
            // The backlog is growing: stop offering load, drop what
            // was never sent and drain what is in flight.
            stop_issuing = true;
            out.aborted = true;
            for (Conn &conn : conns)
                conn.pending.clear();
            continue;
        }
        std::vector<pollfd> fds;
        std::vector<std::size_t> which;
        for (std::size_t c = 0; c < conns.size(); ++c)
            if (!conns[c].inflight.empty()) {
                fds.push_back({conns[c].fd, POLLIN, 0});
                which.push_back(c);
            }
        double wait_ms = 20;
        if (!stop_issuing && next < sched.size())
            wait_ms = std::max(0.0, sched[next].due - now_ms());
        struct timespec ts;
        ts.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
        ts.tv_nsec = static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6);
        if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &conn = conns[which[k]];
            const Bin &b = bins[which[k]];
            Req &r = sched[conn.inflight.front()];
            conn.inflight.pop_front();
            ServeMessage reply;
            std::string err;
            const FrameStatus st = readServeFrame(conn.fd, reply, 60000, err);
            r.done = now_ms();
            if (st != FrameStatus::ok) {
                res.fail(b.name + ": no reply: " + err);
                continue;
            }
            if (reply.verb != "ok") {
                res.fail(b.name + " " + kindName(r.kind) + ": " +
                         reply.get("code") + " " + reply.get("error"));
                continue;
            }
            if (r.kind == kLint) {
                if (reply.getU64("findings") != 0 || reply.getU64("errors") != 0) {
                    res.fail(b.name + ": lint finding: " + reply.get("finding.0"));
                    continue;
                }
            } else if (!noteCounts(res, b, r, reply.getU64("dirty"),
                                   reply.getU64("emitted")) ||
                       reply.getU64("warm") != 1 ||
                       reply.getU64("incremental") != 1 ||
                       !expectedCounts(r.kind, reply.getU64("dirty"),
                                       reply.getU64("emitted"))) {
                res.fail(b.name + " " + kindName(r.kind) + " edit: warm=" +
                         reply.get("warm") + " incremental=" +
                         reply.get("incremental") + " dirty=" +
                         reply.get("dirty") + " emitted=" + reply.get("emitted"));
                continue;
            }
            r.ok = true;
            if (r.kind != kLint)
                served.insert({static_cast<int>(which[k]), r.state});
        }
    }
    for (const Req &r : sched) {
        if (r.sent < 0)
            continue;
        out.queueMs.push_back(r.sent - r.due);
        out.lagMs.push_back(r.noticed - r.due);
        if (!r.ok)
            continue;
        if (r.kind == kLint) {
            out.lintMs.push_back(r.done - r.due);
        } else {
            out.editMs.push_back(r.done - r.due);
            out.editServiceMs.push_back(r.done - r.sent);
            out.binServiceMs[r.bin].push_back(r.done - r.sent);
        }
        out.finalLagMs = r.sent - r.due;
    }
    return out;
}

/** Serve counters from the `stats` verb. */
std::map<std::string, double>
serveStats(const Daemon &d)
{
    std::map<std::string, double> out;
    ServeMessage req, reply;
    req.verb = "stats";
    if (!d.call(req, reply))
        return out;
    for (const char *k : {"requests", "errors", "rejected", "timeouts",
                          "session_hits", "session_misses", "evictions"})
        out[k] = static_cast<double>(reply.getU64(k));
    return out;
}

// ---------------------------------------------------------------- replay

struct ReplayStats
{
    std::vector<double> editMs, lintMs;
    std::vector<double> loadMs, sessionLintMs, openMs;
    double desMs = 0, serMs = 0;
    std::size_t edits = 0, lints = 0, incremental = 0;
    double dirty = 0, emitted = 0, spliced = 0;
    std::size_t emittedOps = 0;
    double cacheFileBytes = 0;
};

/**
 * Replay @p reqs (in issue order) directly through one RewriteSession
 * per binary. With @p rec set, each request is one traced operation.
 */
ReplayStats
replay(std::vector<Bin> &bins, const std::vector<const Req *> &reqs,
       const std::string &work, SpanRecorder *rec, LayerAccum *layers,
       const std::map<std::pair<int, std::uint32_t>, std::uint64_t> &cold,
       Result &res)
{
    ReplayStats st;
    AnalysisCache::global().clear();
    const std::string cache = work + "/replay.icpc";
    std::remove(cache.c_str());
    std::vector<std::unique_ptr<RewriteSession>> sessions;
    std::vector<RewriteOptions> opts;
    for (Bin &b : bins) {
        b.state = 0;
        RewriteOptions o = serveOptions(b);
        if (!o.cachePath.empty())
            o.cachePath = cache;
        opts.push_back(o);
        sessions.push_back(std::make_unique<RewriteSession>(
            BinaryImage::deserialize(b.stateBlobs[0])));
        const auto t = Clock::now();
        if (!sessions.back()->rewrite(o).ok)
            res.checkFailed("replay open of " + b.name + " failed");
        st.openMs.push_back(msSince(t));
    }
    LintOptions lopts;
    lopts.threads = 1;
    for (const Req *rp : reqs) {
        const Req &r = *rp;
        Bin &b = bins[r.bin];
        RewriteSession &session = *sessions[r.bin];
        res.attempt();
        const LayerSnapshot before = LayerSnapshot::begin();
        if (r.kind == kLint) {
            const auto t0 = Clock::now();
            std::size_t findings = 0;
            {
                SpanScope op(rec, "replay.lint", true);
                SpanScope s(rec, "session.lint");
                findings = session.lint(lopts).findings.size();
            }
            const double ms = msSince(t0);
            st.lintMs.push_back(ms);
            st.sessionLintMs.push_back(ms);
            ++st.lints;
            if (layers)
                layers->add(before.end());
            if (findings)
                res.fail("replay lint finding on " + b.name);
            continue;
        }
        b.state = r.state; // the state the daemon was sent
        const std::vector<std::uint8_t> &blob = b.stateBlobs[b.state];
        RewriteSession::LoadOutcome outcome;
        std::vector<std::uint8_t> out;
        double t_des = 0, t_load = 0, t_ser = 0;
        const auto t0 = Clock::now();
        {
            SpanScope op(rec, "replay.edit", true);
            auto t = Clock::now();
            BinaryImage img;
            {
                SpanScope s(rec, "binfmt.deserialize");
                img = BinaryImage::deserialize(blob);
            }
            t_des = msSince(t);
            t = Clock::now();
            {
                SpanScope s(rec, "session.loadInput");
                outcome = session.loadInput(std::move(img));
            }
            t_load = msSince(t);
            t = Clock::now();
            {
                SpanScope s(rec, "binfmt.serialize");
                if (session.lastResult().ok)
                    out = session.lastResult().image.serialize();
            }
            t_ser = msSince(t);
        }
        st.editMs.push_back(msSince(t0));
        if (layers)
            layers->add(before.end());
        ++st.edits;
        st.loadMs.push_back(t_load);
        st.desMs += t_des;
        st.serMs += t_ser;
        st.incremental += outcome.incremental ? 1 : 0;
        const std::size_t dirty = outcome.dirtyFunctions.size();
        st.dirty += static_cast<double>(dirty);
        // An edit with no dirty function produces no fresh
        // RewriteStats; its emitted/spliced counts are absent.
        const RewriteStats &rs = session.lastResult().stats;
        const std::uint64_t emitted = dirty == 0 ? 0 : rs.relocEmittedFunctions;
        if (dirty != 0) {
            st.emitted += rs.relocEmittedFunctions;
            st.spliced += rs.relocReusedFunctions;
            ++st.emittedOps;
        }
        if (!session.lastResult().ok || !outcome.incremental ||
            !noteCounts(res, b, r, dirty, emitted) ||
            !expectedCounts(r.kind, dirty, emitted)) {
            res.fail("replay " + std::string(kindName(r.kind)) + " edit on " +
                     b.name + ": incremental=" +
                     std::to_string(outcome.incremental) + " dirty=" +
                     std::to_string(dirty) + " emitted=" + std::to_string(emitted));
            continue;
        }
        auto it = cold.find({r.bin, b.state});
        if (it != cold.end() && it->second != hashBytes(out))
            res.fail("replay output of " + b.name + " differs from cold");
    }
    std::uint64_t h = 0, size = 0;
    if (hashFile(cache, h, size))
        st.cacheFileBytes = static_cast<double>(size);
    std::remove(cache.c_str());
    return st;
}

} // namespace

int
runEditStream(const Args &args, Result &res)
{
    const std::string work = args.work;
    const std::string sock = work + "/serve.sock";
    const double ref_rps = 40.0;

    // Set-up: generate the binaries, find the edit sites, start the
    // daemon and open (cold) the three sessions. Repeated so setup_s
    // is a median; the last daemon serves the stream.
    std::vector<Bin> bins;
    std::vector<double> setup_s, compile_ms;
    std::unique_ptr<Daemon> daemon;
    std::vector<Conn> conns;
    const int setups = args.inputsOnly ? 1 : 5;
    for (int rep = 0; rep < setups; ++rep) {
        closeAll(conns);
        if (daemon)
            daemon->stop();
        daemon.reset();
        std::remove((work + "/libcommon.icpc").c_str());
        const auto t0 = Clock::now();
        if (!makeBins(args.seed, work, bins))
            return 1;
        compile_ms.push_back(msSince(t0));
        if (args.inputsOnly)
            break;
        daemon = std::make_unique<Daemon>(args.icp, sock);
        if (!openAll(*daemon, bins, conns, work))
            return 1;
        setup_s.push_back(msSince(t0) / 1000.0);
    }

    // The seeded request streams: a reference rung at ref_rps, then
    // a ladder of higher rates.
    Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 83);
    std::vector<double> rates = {ref_rps};
    std::vector<double> secs = {args.seconds * (args.trace ? 0.4 : 0.6)};
    if (!args.trace)
        for (double mult : {2.0, 4.0, 8.0, 16.0}) {
            rates.push_back(ref_rps * mult);
            secs.push_back(args.seconds * 0.1);
        }
    // Each rung's edits continue from the states the previous rung
    // left; the ladder's first rung starts on a fresh daemon, from the
    // unedited binaries.
    std::vector<std::vector<Req>> scheds;
    std::vector<std::uint32_t> states(bins.size(), 0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (i == 1)
            std::fill(states.begin(), states.end(), 0);
        scheds.push_back(makeSchedule(rng, bins, rates[i], secs[i], states));
    }

    std::uint64_t h = hashBytes(nullptr, 0);
    for (const Bin &b : bins) {
        h = hashBytes(b.stateBlobs[0], h);
        for (const Site &s : b.sites) {
            h = hashBytes(reinterpret_cast<const std::uint8_t *>(&s.addr),
                          sizeof(s.addr), h);
            h = hashBytes(s.b, h);
        }
    }
    for (const auto &sched : scheds)
        for (const Req &r : sched) {
            const std::uint64_t due_us = static_cast<std::uint64_t>(r.due * 1000);
            const std::uint8_t key[3] = {r.bin, r.kind, r.site};
            h = hashBytes(reinterpret_cast<const std::uint8_t *>(&due_us),
                          sizeof(due_us), h);
            h = hashBytes(key, sizeof(key), h);
        }
    res.inputHash = hexU64(h);
    if (args.inputsOnly)
        return 0;

    const auto before = serveStats(*daemon);
    std::set<std::pair<int, std::uint32_t>> served;
    for (Bin &b : bins)
        served.insert({static_cast<int>(&b - bins.data()), b.state});
    std::vector<RungResult> rungs;
    double max_rps = 0;
    std::map<std::string, double> after; // counters after the first rung
    double daemon_rss = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (i == 1) {
            // The ladder runs on a fresh daemon, so the reference
            // rung's peak RSS and counters are its own.
            after = serveStats(*daemon);
            closeAll(conns);
            daemon_rss = daemon->stop();
            std::remove((work + "/libcommon.icpc").c_str());
            daemon = std::make_unique<Daemon>(args.icp, sock);
            if (!openAll(*daemon, bins, conns, work))
                return 1;
        }
        rungs.push_back(runRung(conns, bins, scheds[i], rates[i], work,
                                std::max(1000.0, 4 * args.latencyLimitMs),
                                served, res));
        const RungResult &rr = rungs.back();
        const Summary e = summarize(rr.editMs);
        const bool meets = !rr.aborted && e.n > 0 &&
                           e.tail <= args.latencyLimitMs &&
                           rr.finalLagMs <= args.latencyLimitMs;
        if (!meets)
            break;
        max_rps = rates[i];
    }
    if (rungs.size() == 1)
        after = serveStats(*daemon);
    closeAll(conns);
    const double last_rss = daemon->stop();
    if (rungs.size() == 1)
        daemon_rss = last_rss;

    // Every (binary, state) the daemon served, against a cold rewrite.
    std::map<std::pair<int, std::uint32_t>, std::uint64_t> cold;
    for (const auto &[bi, state] : served) {
        const Bin &b = bins[static_cast<std::size_t>(bi)];
        RewriteOptions opts = serveOptions(b);
        opts.cachePath.clear();
        opts.useAnalysisCache = false;
        AnalysisCache::global().clear();
        const RewriteResult rw =
            rewriteBinary(BinaryImage::deserialize(b.stateBlobs[state]), opts);
        const std::vector<std::uint8_t> bytes =
            rw.ok ? rw.image.serialize() : std::vector<std::uint8_t>{};
        cold[{bi, state}] = hashBytes(bytes);
        std::uint64_t fh = 0, fsize = 0;
        if (!rw.ok || !hashFile(outPath(work, b, state), fh, fsize) ||
            fh != hashBytes(bytes))
            res.fail(b.name + " state " + std::to_string(state) +
                     ": served output differs from a cold rewrite");
        std::remove(outPath(work, b, state).c_str());
    }

    const RungResult &ref = rungs.front();
    const Summary edit = summarize(ref.editMs);
    const Summary lint = summarize(ref.lintMs);
    std::vector<double> sizes;
    double tramps = 0, out_bytes = 0;
    for (const Bin &b : bins) {
        sizes.push_back(b.sizeIncrease);
        tramps += static_cast<double>(b.trampolines);
        out_bytes += static_cast<double>(b.outBytes);
    }
    res.determinism["rewrite.trampolines"] = tramps;
    res.determinism["rewrite.out_bytes"] = out_bytes;

    char ladder[256] = "";
    std::string ladder_note = "limit p-tail " +
                              std::to_string(static_cast<int>(args.latencyLimitMs)) +
                              " ms;";
    for (const RungResult &rr : rungs) {
        const Summary e = summarize(rr.editMs);
        std::snprintf(ladder, sizeof(ladder),
                      " %.0f rps: edit p50 %.2f p%.1f %.2f ms, %s;", rr.rps,
                      e.p50, e.tailPct, e.tail,
                      rr.aborted ? "backlog grew" : "steady");
        ladder_note += ladder;
    }

    const std::string rate_note =
        std::to_string(static_cast<int>(ref_rps)) + " rps Poisson";
    const std::string ref_note = "rewrite after edit, from due, " + rate_note;
    // The gated edit time is the daemon's service time (sent to
    // reply), per binary. The pooled median from due (edit_ms_p50)
    // sits between the libxul and libcommon latency modes, and the
    // wait behind a lint on the same connection amplifies every
    // slowdown of the host, so it is reported but not gated.
    double log_ms = 0, log_rate = 0, nbins = 0;
    for (std::size_t bi = 0; bi < bins.size(); ++bi) {
        if (ref.binServiceMs[bi].empty())
            continue; // every edit on it failed; counted in failed
        const double ms = percentile(ref.binServiceMs[bi], 50);
        log_ms += std::log(ms);
        log_rate += std::log(static_cast<double>(bins[bi].insns) / ms);
        ++nbins;
    }
    const double gm_ms = nbins ? std::exp(log_ms / nbins) : 0.0;
    const double gm_rate = nbins ? std::exp(log_rate / nbins) : 0.0;
    res.e2e["setup_s"] = {percentile(setup_s, 50), "s", setup_s.size(),
                          "median of 5 set-ups"};
    res.e2e["op_ms_p50"] = {gm_ms, "ms", edit.n,
                            "geomean over binaries of the median edit service "
                            "time (sent to reply), " + rate_note};
    res.e2e["kinsn_per_s"] = {gm_rate, "kinsn/s", edit.n,
                              "geomean over binaries of decoded instructions "
                              "per ms of median edit service time"};
    res.e2e["peak_rss_mb"] = {daemon_rss, "MB", 0, "daemon (wait4)"};
    res.e2e["size_increase_pct"] = {geomeanOfRatios(sizes) * 100.0, "%",
                                    sizes.size(), "geomean of resident binaries"};
    char tail_note[32];
    std::snprintf(tail_note, sizeof(tail_note), "p%.1f", edit.tailPct);
    res.named["setup_s"] = res.e2e["setup_s"];
    res.named["peak_rss_mb"] = res.e2e["peak_rss_mb"];
    res.named["size_increase_pct"] = res.e2e["size_increase_pct"];
    res.named["edit_ms_p50"] = {edit.p50, "ms", edit.n, ref_note};
    res.named["edit_ms_p99"] = {edit.tail, "ms", edit.n, tail_note};
    std::snprintf(tail_note, sizeof(tail_note), "p%.1f", lint.tailPct);
    res.named["lint_ms_p50"] = {lint.p50, "ms", lint.n, "lint, from due"};
    res.named["lint_ms_p99"] = {lint.tail, "ms", lint.n, tail_note};
    if (!args.trace)
        res.named["serve_max_rps"] = {max_rps, "1/s", rungs.size(), ladder_note};

    res.layers["codegen.compile_ms"] = {percentile(compile_ms, 50), "ms",
                                        compile_ms.size(),
                                        "generate 3 binaries + sites"};
    auto diff = [&](const char *k) {
        const auto a = after.find(k);
        const auto b = before.find(k);
        return (a == after.end() ? 0.0 : a->second) -
               (b == before.end() ? 0.0 : b->second);
    };
    res.layers["serve.rejected"] = {diff("rejected"), "count", 0, "stream"};
    res.layers["serve.timeouts"] = {diff("timeouts"), "count", 0, "stream"};
    res.layers["serve.errors"] = {diff("errors"), "count", 0, "stream"};
    res.layers["serve.session_hits"] = {diff("session_hits"), "count", 0, "stream"};
    res.layers["serve.session_misses"] = {diff("session_misses"), "count", 0,
                                          "stream"};
    res.layers["serve.evictions"] = {diff("evictions"), "count", 0, "stream"};
    {
        double q = 0;
        for (double v : ref.queueMs)
            q += v;
        res.layers["serve.queue_ms"] = {ref.queueMs.empty() ? 0 : q / ref.queueMs.size(),
                                        "ms", ref.queueMs.size(),
                                        "mean due-to-sent"};
        res.layers["serve.gen_lag_ms_p99"] = {percentile(ref.lagMs, 99), "ms",
                                              ref.lagMs.size(), "due-to-noticed"};
    }

    if (!args.trace)
        return 0;

    // The traced run replays the reference rung's requests directly
    // through RewriteSession: untraced once, then traced.
    std::vector<const Req *> issued;
    for (const Req &r : scheds.front())
        if (r.sent >= 0)
            issued.push_back(&r);
    std::stable_sort(issued.begin(), issued.end(),
                     [](const Req *a, const Req *b) { return a->sent < b->sent; });
    // A first pass warms the process (allocator, page cache); then
    // untraced and traced passes alternate, so a drift in host speed
    // does not show up as tracing overhead.
    Result scratch;
    replay(bins, issued, work, nullptr, nullptr, cold, scratch);
    SpanRecorder rec;
    LayerAccum layers;
    ReplayStats plain, traced;
    double plain_ms = 0, traced_ms = 0;
    auto wall = [](const ReplayStats &st) {
        double t = 0;
        for (double x : st.editMs)
            t += x;
        for (double x : st.lintMs)
            t += x;
        return t;
    };
    for (int round = 0; round < 3; ++round) {
        plain = replay(bins, issued, work, nullptr, nullptr, cold, res);
        traced = replay(bins, issued, work, &rec, &layers, cold, res);
        plain_ms += wall(plain);
        traced_ms += wall(traced);
    }

    layers.report(res.layers);
    const double edits = static_cast<double>(std::max<std::size_t>(1, traced.edits));
    auto mean = [](const std::vector<double> &v) {
        double t = 0;
        for (double x : v)
            t += x;
        return v.empty() ? 0.0 : t / static_cast<double>(v.size());
    };
    res.layers["binfmt.deserialize_ms"] = {traced.desMs / edits, "ms", traced.edits,
                                           "per edit"};
    res.layers["binfmt.serialize_ms"] = {traced.serMs / edits, "ms", traced.edits,
                                         "per edit"};
    res.layers["session.load_input_ms"] = {mean(traced.loadMs), "ms",
                                           traced.loadMs.size(), "per edit"};
    res.layers["session.lint_ms"] = {mean(traced.sessionLintMs), "ms",
                                     traced.sessionLintMs.size(), "per lint"};
    res.layers["session.rewrite_ms"] = {mean(traced.openMs), "ms",
                                        traced.openMs.size(), "session open"};
    res.layers["session.dirty_functions"] = {traced.dirty / edits, "count",
                                             traced.edits, "per edit"};
    res.layers["session.incremental_ratio"] = {traced.incremental / edits, "ratio",
                                               traced.edits,
                                               "incremental / all loadInput"};
    const double eo = static_cast<double>(std::max<std::size_t>(1, traced.emittedOps));
    res.layers["rewrite.emitted_functions"] = {
        traced.emitted / eo, "count", traced.emittedOps,
        "per edit with a dirty function; others give no fresh stats"};
    res.layers["rewrite.spliced_functions"] = {
        traced.spliced / eo, "count", traced.emittedOps,
        "per edit with a dirty function; others give no fresh stats"};
    res.layers["cache.file_bytes"] = {traced.cacheFileBytes, "bytes", 0,
                                      "shared libcommon cache file"};
    res.layers["serve.overhead_ms"] = {
        percentile(ref.editServiceMs, 50) - percentile(plain.editMs, 50), "ms",
        ref.editServiceMs.size(),
        "served edit p50 (sent to reply) minus replayed session edit p50"};
    res.layers["trace.coverage_pct"] = {rec.coverage() * 100.0, "%",
                                        traced.edits + traced.lints,
                                        "top-level spans / op wall"};
    res.layers["trace.overhead_pct"] = {
        plain_ms > 0 ? (traced_ms / plain_ms - 1.0) * 100.0 : 0.0, "%",
        3 * (traced.edits + traced.lints),
        "traced vs untraced replay wall, 3 alternating rounds"};
    res.spansJson = rec.selfTimeJson();
    writeTraceFile(args.out + ".trace.json", rec);
    return 0;
}

} // namespace icpbench
