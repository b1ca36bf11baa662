/**
 * @file
 * Golden pins for every serial data-structure entry point and for the
 * pipelined *Many windows.
 *
 * Each cell drives a seeded mix of operations through the public serial
 * API of one structure (insert/find/erase, put/get/erase, push/pop,
 * enqueue/dequeue, and Algorithm 3's insertBatch) on an AsymNVM-RC or
 * AsymNVM-RCB session, with unshared handles and with DsOptions::shared
 * handles driven from both a writer and a reader session. It then pins
 * the session's exact virtual clock, every VerbCounters field, and a
 * digest of the returned statuses and values against recorded
 * constants. Window cells run the same mixes as groups of *Many calls
 * on a pipeline_depth 8 session and also pin every PipelineStats field,
 * so a change to the reactor's read rounds cannot move window numbers
 * silently either.
 *
 * The constants are the reference for "depth 1 is bit-identical": the
 * serial entry points are depth-1 drivers of the structures' coroutine
 * bodies, so there is no second implementation left to compare against.
 * An intended virtual-time change must re-record them (a failing cell
 * prints its actual row) in the same commit, with the reason in
 * CHANGES.md.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "backend/backend_node.h"
#include "common/rand.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/mv_bptree.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

constexpr uint64_t kCacheBytes = 32 << 10; // smaller than every structure
constexpr uint32_t kBatch = 16;            // RCB group-commit size
constexpr uint64_t kKeySpace = 600;
constexpr uint64_t kPreload = 200;
constexpr int kOps = 500;
constexpr uint32_t kWindowDepth = 8; // pipeline_depth of window cells
constexpr size_t kWindowOps = 12;    // ops per *Many call (> depth)

/** One pinned row: a session's clock, verb counters and result digest. */
struct Golden
{
    const char *cell;
    uint64_t clock_ns;
    std::array<uint64_t, 11> verbs; //!< VerbCounters, declaration order
    uint64_t digest;
    std::array<uint64_t, 11> pipe{}; //!< PipelineStats (window cells only)
};

// Recorded with the serial implementations these tests were written
// against; the /window8 rows with the reactor read path that still had
// its own copies of the local tiers, speculation filter and miss fill.
// See the file comment before changing any of them.
// clang-format off
const std::vector<Golden> kGolden = {
    {"bptree/rc/plain+batch/writer", 1867677, {219, 20840, 584, 57500, 526, 266560, 0, 0, 1180, 526, 49}, 0xdd074ea8d3b72213ull},
    {"bptree/rc/plain/window8/writer", 950263, {187, 17416, 228, 89280, 488, 147656, 0, 0, 459, 225, 18}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 18, 52, 4, 5, 24, 288, 288, 0}},
    {"bptree/rc/plain/writer", 1493344, {199, 18184, 456, 43536, 394, 215360, 0, 0, 913, 394, 43}, 0x17ca3010a1da9e24ull},
    {"bptree/rc/shared/reader", 1231330, {832, 274296, 1, 56, 0, 0, 227, 1816, 510, 0, 139}, 0x3ac19b1a3559354aull},
    {"bptree/rc/shared/writer", 5956179, {970, 366280, 485, 45608, 2202, 229824, 1626, 13008, 3444, 2202, 139}, 0xec3fa09e2a461dcfull},
    {"bptree/rcb/plain+batch/writer", 684262, {213, 20456, 42, 129616, 579, 57220, 0, 0, 112, 98, 49}, 0xdd074ea8d3b72213ull},
    {"bptree/rcb/plain/window8/writer", 498541, {179, 16904, 29, 91992, 488, 47328, 0, 0, 60, 42, 18}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 18, 52, 3, 5, 12, 288, 108, 0}},
    {"bptree/rcb/plain/writer", 573111, {195, 17928, 33, 95512, 452, 43312, 0, 0, 97, 84, 44}, 0x17ca3010a1da9e24ull},
    {"bptree/rcb/shared/reader", 845477, {452, 107248, 1, 56, 0, 0, 227, 1816, 352, 0, 87}, 0x58435681b0c9c4e1ull},
    {"bptree/rcb/shared/writer", 873701, {233, 39848, 51, 96992, 580, 44336, 108, 864, 314, 215, 37}, 0xec3fa09e2a461dcfull},
    {"hash/rc/plain/window8/writer", 1353474, {327, 21424, 228, 47960, 489, 63480, 0, 0, 656, 226, 40}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 40, 152, 8, 8, 24, 288, 288, 1}},
    {"hash/rc/plain/writer", 2045725, {332, 21824, 456, 43536, 395, 70464, 0, 0, 1183, 395, 0}, 0x17ca3010a1da9e24ull},
    {"hash/rc/shared/reader", 1455499, {454, 28296, 1, 56, 0, 0, 229, 1832, 684, 0, 0}, 0x3ac19b1a3559354aull},
    {"hash/rc/shared/writer", 8439822, {1721, 105336, 484, 45552, 2203, 84928, 1626, 13008, 4736, 2203, 0}, 0xec3fa09e2a461dcfull},
    {"hash/rcb/plain/window8/writer", 916261, {325, 21264, 30, 49328, 488, 47328, 0, 0, 253, 189, 45}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 45, 156, 12, 8, 12, 288, 108, 1}},
    {"hash/rcb/plain/writer", 1136720, {329, 21584, 34, 45128, 452, 43312, 0, 0, 363, 278, 0}, 0x17ca3010a1da9e24ull},
    {"hash/rcb/shared/reader", 1426398, {441, 27544, 1, 56, 0, 0, 229, 1832, 671, 0, 0}, 0x58435681b0c9c4e1ull},
    {"hash/rcb/shared/writer", 2425905, {851, 53320, 51, 46696, 580, 44336, 108, 864, 1074, 478, 0}, 0xec3fa09e2a461dcfull},
    {"mv_bptree/rc/plain+batch/writer", 8032733, {2466, 779088, 1190, 110684, 526, 611952, 526, 4208, 3419, 526, 215}, 0xdd074ea8d3b72213ull},
    {"mv_bptree/rc/plain/window8/writer", 3949901, {1191, 336800, 555, 324856, 488, 249336, 224, 1792, 1609, 341, 134}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 134, 349, 94, 8, 24, 288, 288, 183}},
    {"mv_bptree/rc/plain/writer", 6159074, {1893, 572912, 927, 83816, 394, 454128, 394, 3152, 2627, 394, 180}, 0x17ca3010a1da9e24ull},
    {"mv_bptree/rc/shared/reader", 953551, {858, 274912, 1, 56, 0, 0, 1, 8, 329, 0, 134}, 0x3ac19b1a3559354aull},
    {"mv_bptree/rc/shared/writer", 7950067, {1575, 527728, 913, 83032, 2202, 468592, 1298, 10384, 4342, 2202, 99}, 0xec3fa09e2a461dcfull},
    {"mv_bptree/rcb/plain+batch/writer", 2296953, {1003, 245712, 205, 609144, 579, 57220, 37, 296, 741, 309, 152}, 0xdd074ea8d3b72213ull},
    {"mv_bptree/rcb/plain/window8/writer", 1505872, {583, 125664, 158, 502096, 488, 47328, 25, 200, 464, 205, 94}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 94, 234, 64, 8, 12, 288, 108, 134}},
    {"mv_bptree/rcb/plain/writer", 1692221, {725, 164560, 155, 450920, 452, 43312, 29, 232, 546, 231, 112}, 0x17ca3010a1da9e24ull},
    {"mv_bptree/rcb/shared/reader", 609789, {505, 113120, 1, 56, 0, 0, 1, 8, 220, 0, 85}, 0x58435681b0c9c4e1ull},
    {"mv_bptree/rcb/shared/writer", 1717446, {550, 154704, 161, 451280, 580, 44336, 96, 768, 653, 363, 62}, 0xec3fa09e2a461dcfull},
    {"queue/rc/plain/window8/writer", 719569, {211, 16784, 42, 30480, 492, 38544, 0, 0, 255, 228, 192}, 0x95d6c638fc504bfdull, {8, 492, 41, 192, 192, 192, 8, 41, 492, 492, 187}},
    {"queue/rc/plain/writer", 1853319, {272, 21696, 502, 39456, 498, 95280, 0, 0, 1272, 498, 0}, 0xa98acc1314626f5bull},
    {"queue/rc/shared/writer", 1853319, {272, 21696, 502, 39456, 498, 95280, 0, 0, 1272, 498, 0}, 0xa98acc1314626f5bull},
    {"queue/rcb/plain/window8/writer", 571834, {172, 13696, 20, 24352, 492, 38544, 0, 0, 195, 180, 162}, 0x95d6c638fc504bfdull, {8, 492, 41, 162, 162, 162, 8, 20, 492, 180, 154}},
    {"queue/rcb/plain/writer", 681184, {216, 17216, 37, 30072, 500, 39344, 0, 0, 254, 207, 0}, 0xa98acc1314626f5bull},
    {"queue/rcb/shared/writer", 681184, {216, 17216, 37, 30072, 500, 39344, 0, 0, 254, 207, 0}, 0xa98acc1314626f5bull},
    {"skiplist/rc/plain+batch/writer", 15500930, {6519, 1354192, 590, 57836, 527, 266736, 0, 0, 7503, 527, 104}, 0xdd074ea8d3b72213ull},
    {"skiplist/rc/plain/window8/writer", 8990829, {5857, 1216816, 233, 115672, 489, 137688, 0, 0, 3907, 303, 891}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 891, 4274, 178, 8, 24, 288, 288, 133}},
    {"skiplist/rc/plain/writer", 14855406, {6475, 1345360, 461, 43816, 395, 206672, 0, 0, 7208, 395, 95}, 0x17ca3010a1da9e24ull},
    {"skiplist/rc/shared/reader", 3269833, {2402, 499456, 1, 56, 0, 0, 228, 1824, 1380, 0, 657}, 0x3ac19b1a3559354aull},
    {"skiplist/rc/shared/writer", 18246379, {8059, 1670192, 490, 45888, 2203, 221136, 1174, 9392, 9212, 2203, 712}, 0xec3fa09e2a461dcfull},
    {"skiplist/rcb/plain+batch/writer", 12458205, {5590, 1160960, 49, 215056, 579, 57220, 0, 0, 5507, 548, 103}, 0xdd074ea8d3b72213ull},
    {"skiplist/rcb/plain/window8/writer", 7314754, {5190, 1078080, 35, 171968, 488, 47328, 0, 0, 2897, 283, 897}, 0x8e20dfeee8ff6a56ull, {8, 492, 41, 897, 4272, 198, 8, 12, 288, 108, 130}},
    {"skiplist/rcb/plain/writer", 12447599, {5726, 1189568, 39, 165088, 452, 43312, 0, 0, 5641, 431, 97}, 0x17ca3010a1da9e24ull},
    {"skiplist/rcb/shared/reader", 2951723, {1712, 355936, 1, 56, 0, 0, 228, 1824, 1296, 0, 371}, 0x58435681b0c9c4e1ull},
    {"skiplist/rcb/shared/writer", 11834670, {5550, 1150560, 57, 167016, 580, 44336, 76, 608, 5456, 562, 183}, 0xec3fa09e2a461dcfull},
    {"stack/rc/plain/window8/writer", 680954, {207, 16464, 42, 28632, 492, 38544, 0, 0, 251, 228, 204}, 0xd73105301deafe05ull, {8, 492, 41, 204, 204, 204, 8, 41, 492, 492, 187}},
    {"stack/rc/plain/writer", 1707994, {229, 18256, 502, 39456, 498, 65856, 0, 0, 1229, 498, 0}, 0x6ffcbedf4c855044ull},
    {"stack/rc/shared/writer", 1707994, {229, 18256, 502, 39456, 498, 65856, 0, 0, 1229, 498, 0}, 0x6ffcbedf4c855044ull},
    {"stack/rcb/plain/window8/writer", 446975, {134, 10656, 17, 19744, 492, 38544, 0, 0, 157, 148, 132}, 0xd73105301deafe05ull, {8, 492, 41, 132, 132, 132, 8, 20, 492, 180, 121}},
    {"stack/rcb/plain/writer", 267506, {58, 4576, 37, 12512, 500, 39344, 0, 0, 96, 88, 0}, 0x6ffcbedf4c855044ull},
    {"stack/rcb/shared/writer", 267506, {58, 4576, 37, 12512, 500, 39344, 0, 0, 96, 88, 0}, 0x6ffcbedf4c855044ull},
};
// clang-format on

const Golden *
findGolden(const std::string &cell)
{
    for (const Golden &g : kGolden)
        if (cell == g.cell)
            return &g;
    return nullptr;
}

std::array<uint64_t, 11>
verbArray(const VerbCounters &c)
{
    return {c.reads,        c.read_bytes, c.writes,    c.write_bytes,
            c.posted,       c.posted_bytes, c.atomics, c.atomic_bytes,
            c.doorbells,    c.wqes,       c.read_gathers};
}

/** FNV-1a over the statuses and values an operation sequence returned. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void add(Status st) { add(static_cast<uint64_t>(st)); }
    void add(Status st, const Value &v)
    {
        add(st);
        if (ok(st))
            add(v.asU64());
    }
};

std::array<uint64_t, 11>
pipeArray(const PipelineStats &p)
{
    return {p.depth,          p.ops,           p.runs,
            p.rounds,         p.batched_reads, p.solo_rounds,
            p.max_in_flight,  p.deferred_commits, p.batched_appends,
            p.coalesced_fences, p.dep_stalls};
}

/** Print @p a as a braced initializer list into @p row at @p n. */
int
printArray(char *row, size_t size, int n, const std::array<uint64_t, 11> &a)
{
    n += std::snprintf(row + n, size - n, "{");
    for (size_t i = 0; i < a.size(); ++i)
        n += std::snprintf(row + n, size - n, "%s%" PRIu64,
                           i == 0 ? "" : ", ", a[i]);
    return n + std::snprintf(row + n, size - n, "}");
}

/** Compare one session against its recorded row; print it on mismatch. */
void
expectGolden(const std::string &cell, FrontendSession &s,
             const Digest &digest)
{
    const uint64_t clock = s.clock().now();
    const std::array<uint64_t, 11> verbs = verbArray(s.verbs().counters());
    const PipelineStats p = s.stats().pipeline;
    const bool window = p.depth > 1;
    char row[768];
    int n = std::snprintf(row, sizeof(row), "    {\"%s\", %" PRIu64 ", ",
                          cell.c_str(), clock);
    n = printArray(row, sizeof(row), n, verbs);
    n += std::snprintf(row + n, sizeof(row) - n, ", 0x%016" PRIx64 "ull",
                       digest.h);
    if (window) {
        n += std::snprintf(row + n, sizeof(row) - n, ", ");
        n = printArray(row, sizeof(row), n, pipeArray(p));
    }
    std::snprintf(row + n, sizeof(row) - n, "},");

    const Golden *g = findGolden(cell);
    ASSERT_NE(g, nullptr) << "no recorded row; actual:\n" << row;
    EXPECT_EQ(clock, g->clock_ns) << cell << " actual:\n" << row;
    EXPECT_EQ(verbs, g->verbs) << cell << " actual:\n" << row;
    EXPECT_EQ(digest.h, g->digest) << cell << " actual:\n" << row;
    if (window) {
        EXPECT_EQ(pipeArray(p), g->pipe) << cell << " actual:\n" << row;
        return;
    }
    // Depth-1 serial ops never enter the reactor's window machinery.
    EXPECT_EQ(p.runs, 0u) << cell;
    EXPECT_EQ(p.rounds, 0u) << cell;
    EXPECT_EQ(p.deferred_commits, 0u) << cell;
    EXPECT_EQ(p.batched_appends, 0u) << cell;
    EXPECT_EQ(p.coalesced_fences, 0u) << cell;
    EXPECT_EQ(p.dep_stalls, 0u) << cell;
}

BackendConfig
backendConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 64ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 8;
    cfg.memlog_ring_size = 1ull << 20;
    cfg.oplog_ring_size = 512ull << 10;
    return cfg;
}

SessionConfig
preset(bool rcb, uint64_t id, bool window)
{
    SessionConfig c = rcb ? SessionConfig::rcb(id, kCacheBytes, kBatch)
                          : SessionConfig::rc(id, kCacheBytes);
    if (window)
        c.pipeline_depth = kWindowDepth;
    return c;
}

/** One back-end, a writer session and a reader session. */
struct Rig
{
    std::unique_ptr<BackendNode> be;
    std::unique_ptr<FrontendSession> w, r;

    Rig(bool rcb, bool window)
    {
        be = std::make_unique<BackendNode>(1, backendConfig());
        w = std::make_unique<FrontendSession>(preset(rcb, 1, window));
        r = std::make_unique<FrontendSession>(preset(rcb, 2, window));
        EXPECT_EQ(w->connect(be.get()), Status::Ok);
        EXPECT_EQ(r->connect(be.get()), Status::Ok);
    }
};

// Uniform adapters over the keyed structures' serial entry points.
template <typename DS>
Status
createDs(FrontendSession &s, DS *out, const DsOptions &opt)
{
    return DS::create(s, 1, "ds", out, opt);
}
template <>
Status
createDs(FrontendSession &s, HashTable *out, const DsOptions &opt)
{
    return HashTable::create(s, 1, "ds", 64, out, opt);
}
template <typename DS>
Status
put(DS &ds, Key k, const Value &v)
{
    return ds.insert(k, v);
}
Status
put(HashTable &ds, Key k, const Value &v)
{
    return ds.put(k, v);
}
template <typename DS>
Status
get(DS &ds, Key k, Value *v)
{
    return ds.find(k, v);
}
Status
get(HashTable &ds, Key k, Value *v)
{
    return ds.get(k, v);
}
template <typename DS>
Status
putMany(DS &ds, std::span<const std::pair<Key, Value>> kvs, Status *sts)
{
    return ds.insertMany(kvs, sts);
}
Status
putMany(HashTable &ds, std::span<const std::pair<Key, Value>> kvs,
        Status *sts)
{
    return ds.putMany(kvs, sts);
}
template <typename DS>
Status
getMany(DS &ds, std::span<const Key> keys, Value *vals, Status *sts)
{
    return ds.findMany(keys, vals, sts);
}
Status
getMany(HashTable &ds, std::span<const Key> keys, Value *vals, Status *sts)
{
    return ds.getMany(keys, vals, sts);
}

/**
 * One window cell's group of keys: a quarter come from a 16-key hot set,
 * so ops in one window meet on the same key (gate waits) and on the same
 * nodes (a parked read behind a sibling's write).
 */
std::vector<Key>
windowKeys(Rng &rng)
{
    std::vector<Key> keys(kWindowOps);
    for (Key &k : keys)
        k = 1 + (rng.nextBounded(4) == 0 ? rng.nextBounded(16)
                                         : rng.nextBounded(kKeySpace));
    return keys;
}

/**
 * The keyed mix as *Many windows: each group of kWindowOps keys is one
 * insertMany/putMany, eraseMany or findMany/getMany call.
 */
template <typename DS>
void
runKeyedWindows(DS &w, Rng &rng, Digest &wd)
{
    for (int i = 0; i < kOps / static_cast<int>(kWindowOps); ++i) {
        const uint64_t dice = rng.nextBounded(100);
        const std::vector<Key> keys = windowKeys(rng);
        std::vector<Status> sts(keys.size());
        std::vector<Value> vals(keys.size());
        if (dice < 35) {
            std::vector<std::pair<Key, Value>> kvs;
            for (const Key k : keys)
                kvs.emplace_back(k, Value::ofU64(k * 11 + i));
            ASSERT_EQ(putMany(w, kvs, sts.data()), Status::Ok);
        } else if (dice < 55) {
            ASSERT_EQ(w.eraseMany(keys, sts.data()), Status::Ok);
        } else {
            ASSERT_EQ(getMany(w, keys, vals.data(), sts.data()), Status::Ok);
        }
        for (size_t j = 0; j < keys.size(); ++j)
            wd.add(sts[j], vals[j]);
    }
}

/**
 * Keyed cell: preload, then a seeded insert/update/find/erase mix (and
 * sorted insertBatch vectors where @p batch). With @p shared the writer
 * runs on a shared handle — flushing periodically so its lock drops and
 * its finds take the seqlock path — and a reader session interleaves
 * finds through its own shared handle. With @p window the mix runs as
 * *Many windows on a pipeline_depth 8 session instead.
 */
template <typename DS>
void
runKeyed(const std::string &name, bool rcb, bool shared, bool batch,
         bool window = false)
{
    Rig rig(rcb, window);
    DsOptions opt;
    opt.shared = shared;
    DS w;
    ASSERT_EQ(createDs(*rig.w, &w, opt), Status::Ok);
    Rng rng(0x901d + kKeySpace);
    for (uint64_t k = 1; k <= kPreload; ++k) {
        const Key key = 1 + rng.nextBounded(kKeySpace);
        ASSERT_EQ(put(w, key, Value::ofU64(key * 7)), Status::Ok);
    }
    ASSERT_EQ(rig.w->flushAll(), Status::Ok);

    DS r;
    if (shared) {
        ASSERT_EQ(DS::open(*rig.r, 1, "ds", &r, opt), Status::Ok);
    }

    Digest wd, rd;
    if (window)
        runKeyedWindows(w, rng, wd);
    for (int i = 0; !window && i < kOps; ++i) {
        const Key key = 1 + rng.nextBounded(kKeySpace);
        const uint64_t dice = rng.nextBounded(100);
        Value v;
        if (dice < 35) {
            wd.add(put(w, key, Value::ofU64(key * 11 + i)));
        } else if (dice < 55) {
            wd.add(w.erase(key));
        } else if (dice < 80) {
            const Status st = get(w, key, &v);
            wd.add(st, v);
        } else if (shared) {
            const Status st = get(r, key, &v);
            rd.add(st, v);
        } else {
            const Status st = get(w, key, &v);
            wd.add(st, v);
        }
        if constexpr (!std::is_same_v<DS, HashTable>) {
            if (batch && i % 50 == 49) {
                std::vector<std::pair<Key, Value>> kvs;
                for (int j = 0; j < 12; ++j) {
                    const Key bk = 1 + rng.nextBounded(kKeySpace);
                    kvs.emplace_back(bk, Value::ofU64(bk * 13 + i));
                }
                wd.add(w.insertBatch(kvs));
            }
        }
        if (shared && i % 64 == 63) {
            ASSERT_EQ(rig.w->flushAll(), Status::Ok);
        }
    }
    ASSERT_EQ(rig.w->flushAll(), Status::Ok);
    wd.add(w.size());
    const std::string cell = name + (rcb ? "/rcb" : "/rc") +
                             (shared ? "/shared" : "/plain") +
                             (batch ? "+batch" : "") +
                             (window ? "/window8" : "");
    expectGolden(cell + "/writer", *rig.w, wd);
    if (shared)
        expectGolden(cell + "/reader", *rig.r, rd);
}

// Uniform adapters over the list structures' serial and *Many entry
// points.
Status
push(Stack &s, const Value &v)
{
    return s.push(v);
}
Status
push(Queue &q, const Value &v)
{
    return q.enqueue(v);
}
Status
pop(Stack &s, Value *v)
{
    return s.pop(v);
}
Status
pop(Queue &q, Value *v)
{
    return q.dequeue(v);
}
Status
pushMany(Stack &s, std::span<const Value> vs, Status *sts)
{
    return s.pushMany(vs, sts);
}
Status
pushMany(Queue &q, std::span<const Value> vs, Status *sts)
{
    return q.enqueueMany(vs, sts);
}
Status
popMany(Stack &s, std::span<Value> vs, Status *sts)
{
    return s.popMany(vs, sts);
}
Status
popMany(Queue &q, std::span<Value> vs, Status *sts)
{
    return q.dequeueMany(vs, sts);
}

/**
 * List cell: a seeded push/pop (enqueue/dequeue) mix. With @p window the
 * mix runs as pushMany/popMany windows of kWindowOps values on a
 * pipeline_depth 8 session instead.
 */
template <typename DS>
void
runList(const std::string &name, bool rcb, bool shared, bool window = false)
{
    Rig rig(rcb, window);
    DsOptions opt;
    opt.shared = shared;
    DS ds;
    ASSERT_EQ(DS::create(*rig.w, 1, "ds", &ds, opt), Status::Ok);
    Rng rng(0x5ac4);
    Digest d;
    for (int i = 0; window && i < kOps / static_cast<int>(kWindowOps);
         ++i) {
        std::vector<Status> sts(kWindowOps);
        std::vector<Value> vals(kWindowOps);
        if (rng.nextBounded(100) < 55) {
            for (size_t j = 0; j < kWindowOps; ++j)
                vals[j] = Value::ofU64(i * 37 + j * 3 + 1);
            ASSERT_EQ(pushMany(ds, vals, sts.data()), Status::Ok);
            for (const Status st : sts)
                d.add(st);
        } else {
            ASSERT_EQ(popMany(ds, vals, sts.data()), Status::Ok);
            for (size_t j = 0; j < kWindowOps; ++j)
                d.add(sts[j], vals[j]);
        }
        if (i % 8 == 7) {
            ASSERT_EQ(rig.w->flushAll(), Status::Ok);
        }
    }
    for (int i = 0; !window && i < kOps; ++i) {
        if (rng.nextBounded(100) < 55) {
            d.add(push(ds, Value::ofU64(i * 3 + 1)));
        } else {
            Value v;
            const Status st = pop(ds, &v);
            d.add(st, v);
        }
        if (i % 97 == 96) {
            ASSERT_EQ(rig.w->flushAll(), Status::Ok);
        }
    }
    ASSERT_EQ(rig.w->flushAll(), Status::Ok);
    d.add(ds.size());
    expectGolden(name + (rcb ? "/rcb" : "/rc") +
                     (shared ? "/shared" : "/plain") +
                     (window ? "/window8" : "") + "/writer",
                 *rig.w, d);
}

class DepthOneGolden : public ::testing::TestWithParam<bool>
{};

TEST_P(DepthOneGolden, BpTree)
{
    runKeyed<BpTree>("bptree", GetParam(), false, false);
    runKeyed<BpTree>("bptree", GetParam(), true, false);
    runKeyed<BpTree>("bptree", GetParam(), false, true);
}

TEST_P(DepthOneGolden, MvBpTree)
{
    runKeyed<MvBpTree>("mv_bptree", GetParam(), false, false);
    runKeyed<MvBpTree>("mv_bptree", GetParam(), true, false);
    runKeyed<MvBpTree>("mv_bptree", GetParam(), false, true);
}

TEST_P(DepthOneGolden, SkipList)
{
    runKeyed<SkipList>("skiplist", GetParam(), false, false);
    runKeyed<SkipList>("skiplist", GetParam(), true, false);
    runKeyed<SkipList>("skiplist", GetParam(), false, true);
}

TEST_P(DepthOneGolden, HashTable)
{
    runKeyed<HashTable>("hash", GetParam(), false, false);
    runKeyed<HashTable>("hash", GetParam(), true, false);
}

TEST_P(DepthOneGolden, Stack)
{
    runList<Stack>("stack", GetParam(), false);
    runList<Stack>("stack", GetParam(), true);
}

TEST_P(DepthOneGolden, Queue)
{
    runList<Queue>("queue", GetParam(), false);
    runList<Queue>("queue", GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(Presets, DepthOneGolden, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "RCB" : "RC";
                         });

/** The same cells as *Many windows on a pipeline_depth 8 session. */
class WindowGolden : public ::testing::TestWithParam<bool>
{};

TEST_P(WindowGolden, Keyed)
{
    runKeyed<BpTree>("bptree", GetParam(), false, false, true);
    runKeyed<MvBpTree>("mv_bptree", GetParam(), false, false, true);
    runKeyed<SkipList>("skiplist", GetParam(), false, false, true);
    runKeyed<HashTable>("hash", GetParam(), false, false, true);
}

TEST_P(WindowGolden, Lists)
{
    runList<Stack>("stack", GetParam(), false, true);
    runList<Queue>("queue", GetParam(), false, true);
}

INSTANTIATE_TEST_SUITE_P(Presets, WindowGolden, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "RCB" : "RC";
                         });

} // namespace
} // namespace asymnvm
