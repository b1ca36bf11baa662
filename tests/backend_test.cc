/**
 * @file
 * Integration tests for the back-end node: layout, the persistent-bitmap
 * slab allocator, the naming space, log append + replay, tail validation,
 * restart recovery (Case 3), mirror replication and promotion (Case 4),
 * and lazy GC epoch bumps.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "backend/backend_node.h"
#include "backend/log_format.h"
#include "rdma/rpc.h"

namespace asymnvm {
namespace {

BackendConfig
smallConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 16ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 64ull << 10;
    cfg.oplog_ring_size = 32ull << 10;
    cfg.block_size = 1024;
    return cfg;
}

TEST(LayoutTest, RegionsAreDisjointAndOrdered)
{
    const Layout lay = Layout::compute(smallConfig());
    const SuperBlock &sb = lay.super;
    EXPECT_LT(sizeof(SuperBlock), sb.naming_off);
    EXPECT_LT(sb.naming_off, sb.felog_off);
    EXPECT_LT(sb.felog_off, sb.bitmap_off);
    EXPECT_LT(sb.bitmap_off, sb.data_off);
    EXPECT_LE(lay.dataEnd(), smallConfig().nvm_size);
    EXPECT_GT(sb.data_blocks, 1000u);
}

TEST(LayoutTest, TooSmallDeviceRejected)
{
    BackendConfig cfg = smallConfig();
    cfg.nvm_size = 300ull << 10; // smaller than the metadata needs
    EXPECT_THROW(Layout::compute(cfg), std::invalid_argument);
}

TEST(BackendAllocTest, AllocFreeRoundTrip)
{
    BackendNode be(1, smallConfig());
    uint64_t off = 0;
    ASSERT_EQ(be.rpcAllocBlocks(4, &off), Status::Ok);
    EXPECT_GE(off, be.layout().dataOff());
    EXPECT_TRUE(be.allocator().isAllocated(off));
    ASSERT_EQ(be.rpcFreeBlocks(off, 4), Status::Ok);
    EXPECT_FALSE(be.allocator().isAllocated(off));
}

TEST(BackendAllocTest, DistinctAllocationsDoNotOverlap)
{
    BackendNode be(1, smallConfig());
    uint64_t a = 0, b = 0;
    ASSERT_EQ(be.rpcAllocBlocks(2, &a), Status::Ok);
    ASSERT_EQ(be.rpcAllocBlocks(2, &b), Status::Ok);
    const uint64_t bs = be.config().block_size;
    EXPECT_TRUE(a + 2 * bs <= b || b + 2 * bs <= a);
}

TEST(BackendAllocTest, DoubleFreeRejected)
{
    BackendNode be(1, smallConfig());
    uint64_t off = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &off), Status::Ok);
    ASSERT_EQ(be.rpcFreeBlocks(off, 1), Status::Ok);
    EXPECT_EQ(be.rpcFreeBlocks(off, 1), Status::InvalidArgument);
}

TEST(BackendAllocTest, ExhaustionReturnsOutOfMemory)
{
    BackendNode be(1, smallConfig());
    uint64_t off = 0;
    EXPECT_EQ(be.rpcAllocBlocks(be.allocator().totalBlocks() + 1, &off),
              Status::OutOfMemory);
}

TEST(BackendAllocTest, BitmapSurvivesRestart)
{
    auto cfg = smallConfig();
    uint64_t off = 0;
    std::shared_ptr<NvmDevice> dev;
    {
        BackendNode be(1, cfg);
        ASSERT_EQ(be.rpcAllocBlocks(3, &off), Status::Ok);
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_TRUE(be2.allocator().isAllocated(off));
    // The recovered allocator must not hand the same blocks out again.
    uint64_t off2 = 0;
    ASSERT_EQ(be2.rpcAllocBlocks(3, &off2), Status::Ok);
    EXPECT_NE(off, off2);
}

TEST(NamingTest, CreateLookupRoundTrip)
{
    BackendNode be(1, smallConfig());
    DsId id = 0;
    ASSERT_EQ(be.rpcCreateName(0x1234, DsType::BpTree, &id), Status::Ok);
    DsId found = 99;
    DsType type = DsType::None;
    ASSERT_EQ(be.rpcLookupName(0x1234, &found, &type), Status::Ok);
    EXPECT_EQ(found, id);
    EXPECT_EQ(type, DsType::BpTree);
}

TEST(NamingTest, DuplicateNameRejected)
{
    BackendNode be(1, smallConfig());
    DsId id = 0;
    ASSERT_EQ(be.rpcCreateName(0x77, DsType::Stack, &id), Status::Ok);
    EXPECT_EQ(be.rpcCreateName(0x77, DsType::Queue, &id), Status::Exists);
}

TEST(NamingTest, UnknownNameNotFound)
{
    BackendNode be(1, smallConfig());
    DsId id = 0;
    EXPECT_EQ(be.rpcLookupName(0x9999, &id, nullptr), Status::NotFound);
}

TEST(NamingTest, NamesSurviveRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    DsId id = 0;
    {
        BackendNode be(1, cfg);
        ASSERT_EQ(be.rpcCreateName(0xabc, DsType::SkipList, &id),
                  Status::Ok);
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    DsId found = 0;
    DsType type = DsType::None;
    ASSERT_EQ(be2.rpcLookupName(0xabc, &found, &type), Status::Ok);
    EXPECT_EQ(found, id);
    EXPECT_EQ(type, DsType::SkipList);
    EXPECT_EQ(be2.nameCount(), 1u);
}

TEST(RegistrationTest, SlotsAreStablePerSession)
{
    BackendNode be(1, smallConfig());
    uint32_t s1 = 99, s2 = 99, s1again = 99;
    ASSERT_EQ(be.registerFrontend(111, &s1), Status::Ok);
    ASSERT_EQ(be.registerFrontend(222, &s2), Status::Ok);
    EXPECT_NE(s1, s2);
    ASSERT_EQ(be.registerFrontend(111, &s1again), Status::Ok);
    EXPECT_EQ(s1, s1again) << "reconnect must reattach the same slot";
}

TEST(RegistrationTest, SlotsExhaust)
{
    BackendNode be(1, smallConfig());
    uint32_t s = 0;
    for (uint64_t i = 1; i <= smallConfig().max_frontends; ++i)
        ASSERT_EQ(be.registerFrontend(i, &s), Status::Ok);
    EXPECT_EQ(be.registerFrontend(1000, &s), Status::Unavailable);
}

// Helper: append a tx directly into the ring like a front-end would.
struct RawAppender
{
    BackendNode *be;
    uint32_t slot;
    uint64_t memlog_head = 0;
    uint64_t oplog_head = 0;

    Status appendTx(DsId ds, uint64_t lpn, uint64_t covered_opn,
                    std::vector<std::pair<uint64_t, uint64_t>> writes)
    {
        TxBuilder b;
        b.reset(lpn, ds, covered_opn);
        for (auto &[addr, val] : writes)
            b.addInline(RemotePtr(be->id(), addr), &val, 8);
        const auto bytes = b.finish();
        const uint64_t pos = memlog_head;
        be->nvm().write(be->layout().memlogRing(slot).abs(pos),
                        bytes.data(), bytes.size());
        be->nvm().persist();
        memlog_head += bytes.size();
        return be->onTxAppended(slot, pos,
                                static_cast<uint32_t>(bytes.size()), 0);
    }

    Status appendOp(DsId ds, uint64_t opn, OpType op, Key key,
                    uint64_t value)
    {
        const auto rec = encodeOpLog(op, ds, opn, key, &value, 8);
        const uint64_t pos = oplog_head;
        be->nvm().write(be->layout().oplogRing(slot).abs(pos),
                        rec.data(), rec.size());
        be->nvm().persist();
        oplog_head += rec.size();
        return be->onOpLogAppended(slot, pos,
                                   static_cast<uint32_t>(rec.size()), 0);
    }
};

TEST(ReplayTest, TxUpdatesDataArea)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(0, 0, 0, {{dst, 0xfeed}, {dst + 8, 0xface}}),
              Status::Ok);
    EXPECT_EQ(be.nvm().read64(dst), 0xfeedu);
    EXPECT_EQ(be.nvm().read64(dst + 8), 0xfaceu);
    EXPECT_EQ(be.replayedTxs(), 1u);
    EXPECT_EQ(be.replayedEntries(), 2u);
}

TEST(ReplayTest, SeqNumBracketsLockBasedReplay)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x1, DsType::Bst, &ds), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    EXPECT_EQ(be.namingEntry(ds).seq_num, 0u);
    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(ds, 0, 0, {{dst, 1}}), Status::Ok);
    // SN went odd during replay and even after: net +2, and it is even.
    EXPECT_EQ(be.namingEntry(ds).seq_num, 2u);
}

TEST(ReplayTest, MultiVersionTypesDoNotBumpSeqNum)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x2, DsType::MvBst, &ds), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(ds, 0, 0, {{dst, 1}}), Status::Ok);
    EXPECT_EQ(be.namingEntry(ds).seq_num, 0u);
}

TEST(ReplayTest, TornTxRejectedAndNotReplayed)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    TxBuilder b;
    b.reset(0, 0, 0);
    const uint64_t v = 0xbad;
    b.addInline(RemotePtr(1, dst), &v, 8);
    const auto bytes = b.finish();
    // Write only a prefix (torn RDMA_Write).
    const Layout &lay = be.layout();
    be.nvm().write(lay.memlogRing(slot).base, bytes.data(),
                   bytes.size() - 5);
    be.nvm().persist();
    EXPECT_EQ(be.onTxAppended(slot, 0,
                              static_cast<uint32_t>(bytes.size()), 0),
              Status::Corruption);
    EXPECT_EQ(be.nvm().read64(dst), 0u) << "torn tx must not replay";
    EXPECT_EQ(be.validateTail(slot), TxValidation::Torn);
}

TEST(ReplayTest, OpLogWindowShrinksWhenCovered)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendOp(0, 0, OpType::Insert, 1, 10), Status::Ok);
    ASSERT_EQ(app.appendOp(0, 1, OpType::Insert, 2, 20), Status::Ok);
    EXPECT_EQ(be.uncoveredOps(slot).size(), 2u);

    ASSERT_EQ(app.appendTx(0, 0, /*covered_opn=*/2, {{dst, 1}}),
              Status::Ok);
    EXPECT_EQ(be.uncoveredOps(slot).size(), 0u);
}

TEST(RecoveryTest, CleanTailRollsForwardOnRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    uint64_t dst = 0;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
        // Append tx bytes WITHOUT notifying the backend: simulates a
        // crash between the RDMA_Write and the ack (Case 3.a).
        TxBuilder b;
        b.reset(0, 0, 0);
        const uint64_t v = 0x11aa;
        b.addInline(RemotePtr(1, dst), &v, 8);
        const auto bytes = b.finish();
        be.nvm().write(be.layout().memlogRing(slot).base, bytes.data(),
                       bytes.size());
        be.nvm().persist();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_EQ(be2.nvm().read64(dst), 0x11aau)
        << "restart must roll the persisted tail transaction forward";
    EXPECT_EQ(be2.readControl(0).lpn, 1u);
}

TEST(RecoveryTest, TornTailIgnoredOnRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    uint64_t dst = 0;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
        TxBuilder b;
        b.reset(0, 0, 0);
        const uint64_t v = 0x22bb;
        b.addInline(RemotePtr(1, dst), &v, 8);
        const auto bytes = b.finish();
        be.nvm().write(be.layout().memlogRing(slot).base, bytes.data(),
                       bytes.size() - 3); // torn
        be.nvm().persist();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_EQ(be2.nvm().read64(dst), 0u);
    EXPECT_EQ(be2.readControl(0).lpn, 0u);
}

TEST(RecoveryTest, OpLogTailRollsForwardOnRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        // Op log lands, ack lost.
        const uint64_t val = 42;
        const auto rec = encodeOpLog(OpType::Insert, 0, 0, 7, &val, 8);
        be.nvm().write(be.layout().oplogRing(slot).base, rec.data(),
                       rec.size());
        be.nvm().persist();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    const auto ops = be2.uncoveredOps(0);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].key, 7u);
    EXPECT_EQ(be2.readControl(0).opn, 1u);
}

TEST(RecoveryTest, EpochAdvancesOnEveryRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    uint64_t epoch1 = 0;
    {
        BackendNode be(1, cfg);
        epoch1 = be.epoch();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_GT(be2.epoch(), epoch1);
}

TEST(StaleLockTest, ReleasedViaLockAheadRecord)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x3, DsType::Bst, &ds), Status::Ok);

    // Simulate the crashed front-end: lock word set, lock-ahead written.
    const uint64_t lock_off =
        be.layout().namingEntryOff(ds) + naming_field::kWriterLock;
    be.nvm().write64Atomic(lock_off, slot + 1);
    be.nvm().write64Atomic(be.layout().logControlOff(slot) +
                               offsetof(LogControl, lock_ahead),
                           ds + 1);
    be.releaseStaleLocks(slot);
    EXPECT_EQ(be.nvm().read64(lock_off), 0u);
}

TEST(StaleLockTest, ForeignLockNotTouched)
{
    BackendNode be(1, smallConfig());
    uint32_t s1 = 0, s2 = 0;
    ASSERT_EQ(be.registerFrontend(5, &s1), Status::Ok);
    ASSERT_EQ(be.registerFrontend(6, &s2), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x4, DsType::Bst, &ds), Status::Ok);

    const uint64_t lock_off =
        be.layout().namingEntryOff(ds) + naming_field::kWriterLock;
    be.nvm().write64Atomic(lock_off, s2 + 1); // held by session 6
    be.nvm().write64Atomic(be.layout().logControlOff(s1) +
                               offsetof(LogControl, lock_ahead),
                           ds + 1); // stale record from session 5
    be.releaseStaleLocks(s1);
    EXPECT_EQ(be.nvm().read64(lock_off), s2 + 1u)
        << "a lock now held by another session must survive";
}

TEST(GcTest, EpochBumpsAfterDelay)
{
    BackendNode be(1, smallConfig());
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x5, DsType::MvBst, &ds), Status::Ok);
    std::vector<std::pair<uint64_t, uint64_t>> regions = {{4096, 1}};
    ASSERT_EQ(be.rpcRetire(ds, regions, /*now=*/1000), Status::Ok);
    EXPECT_EQ(be.namingEntry(ds).gc_epoch, 0u);

    be.processGc(1000 + be.config().gc_delay_ns - 1);
    EXPECT_EQ(be.namingEntry(ds).gc_epoch, 0u) << "GC must respect n+l";
    be.processGc(1000 + be.config().gc_delay_ns + 1);
    EXPECT_EQ(be.namingEntry(ds).gc_epoch, 1u);
}

TEST(MirrorTest, ReplicaTracksBackendWrites)
{
    BackendNode be(1, smallConfig());
    MirrorNode mirror(50, smallConfig().nvm_size);
    be.addMirror(&mirror);

    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
    RawAppender app{&be, slot};
    // The mirror is notified through onTxAppended replication.
    ASSERT_EQ(app.appendTx(0, 0, 0, {{dst, 0x5151}}), Status::Ok);
    EXPECT_EQ(mirror.device().read64(dst), 0x5151u);
    EXPECT_GT(mirror.bytesReplicated(), 0u);
}

TEST(MirrorTest, PromotionYieldsWorkingBackend)
{
    auto cfg = smallConfig();
    BackendNode be(1, cfg);
    MirrorNode mirror(50, cfg.nvm_size);
    be.addMirror(&mirror);

    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x6, DsType::Queue, &ds), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(ds, 0, 0, {{dst, 0x7777}}), Status::Ok);

    // Case 4: promote the mirror — same node id, replica device.
    BackendNode promoted(1, cfg, mirror.releaseDevice());
    EXPECT_EQ(promoted.nvm().read64(dst), 0x7777u);
    DsId found = 0;
    EXPECT_EQ(promoted.rpcLookupName(0x6, &found, nullptr), Status::Ok);
    EXPECT_EQ(found, ds);
    EXPECT_TRUE(promoted.allocator().isAllocated(dst));
}

TEST(RpcRingTest, HandleRpcServesAllocationViaRings)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);

    RpcRequest req{};
    req.magic = kRpcReqMagic;
    req.op = static_cast<uint32_t>(RpcOp::AllocBlocks);
    req.seq = 1;
    req.args[0] = 2;
    req.checksum = rpcRequestChecksum(req, {});
    be.nvm().write(be.layout().rpcReqRingOff(slot), &req, sizeof(req));
    be.nvm().persist();
    ASSERT_EQ(be.handleRpc(slot), Status::Ok);

    RpcResponse resp{};
    be.nvm().read(be.layout().rpcRespRingOff(slot), &resp, sizeof(resp));
    EXPECT_EQ(resp.magic, kRpcRespMagic);
    EXPECT_EQ(resp.seq, 1u);
    EXPECT_EQ(static_cast<Status>(resp.status), Status::Ok);
    EXPECT_TRUE(be.allocator().isAllocated(resp.rets[0]));
}

} // namespace
} // namespace asymnvm
