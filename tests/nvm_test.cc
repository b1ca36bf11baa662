/**
 * @file
 * Unit tests for the NVM device emulation: read/write, atomics, the
 * durability journal semantics (persist / crash / partial crash) the
 * crash-consistency machinery relies on, the page-diffing mirror sync,
 * and the host cost of an untouched image.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/mirror.h"
#include "nvm/nvm_device.h"

namespace asymnvm {
namespace {

TEST(NvmDeviceTest, ReadBackWrite)
{
    NvmDevice dev(1 << 16);
    const char msg[] = "persistent bytes";
    dev.write(128, msg, sizeof(msg));
    char buf[sizeof(msg)] = {};
    dev.read(128, buf, sizeof(msg));
    EXPECT_STREQ(buf, msg);
}

TEST(NvmDeviceTest, FreshDeviceIsZeroed)
{
    NvmDevice dev(4096);
    uint64_t word = 1;
    dev.read(1024, &word, sizeof(word));
    EXPECT_EQ(word, 0u);
}

TEST(NvmDeviceTest, CrashRollsBackUnpersistedWrites)
{
    NvmDevice dev(1 << 16);
    const uint64_t a = 0x1111, b = 0x2222;
    dev.write(0x100, &a, 8);
    dev.persist();
    dev.write(0x100, &b, 8);
    EXPECT_EQ(dev.read64(0x100), b); // visible before the crash
    dev.crash();
    EXPECT_EQ(dev.read64(0x100), a); // rolled back to the durable image
}

TEST(NvmDeviceTest, PersistMakesWritesDurable)
{
    NvmDevice dev(1 << 16);
    const uint64_t v = 42;
    dev.write(0x80, &v, 8);
    dev.persist();
    dev.crash();
    EXPECT_EQ(dev.read64(0x80), 42u);
}

TEST(NvmDeviceTest, PartialCrashKeepsWritePrefix)
{
    NvmDevice dev(1 << 16);
    for (uint64_t i = 0; i < 8; ++i) {
        const uint64_t v = 100 + i;
        dev.write(0x200 + i * 8, &v, 8);
    }
    dev.crashPartial(3); // only the first three writes reached the media
    for (uint64_t i = 0; i < 8; ++i) {
        const uint64_t expect = i < 3 ? 100 + i : 0;
        EXPECT_EQ(dev.read64(0x200 + i * 8), expect) << "slot " << i;
    }
}

TEST(NvmDeviceTest, OverlappingWritesRollBackInOrder)
{
    NvmDevice dev(1 << 16);
    const uint64_t base = 7;
    dev.write(0x300, &base, 8);
    dev.persist();
    const uint64_t x = 8, y = 9;
    dev.write(0x300, &x, 8);
    dev.write(0x300, &y, 8);
    dev.crash();
    EXPECT_EQ(dev.read64(0x300), 7u);
}

TEST(NvmDeviceTest, AtomicsAreImmediatelyDurable)
{
    NvmDevice dev(1 << 16);
    dev.write64Atomic(0x400, 77);
    dev.crash(); // no staged writes to roll back
    EXPECT_EQ(dev.read64(0x400), 77u);
}

TEST(NvmDeviceTest, CompareAndSwapSemantics)
{
    NvmDevice dev(1 << 16);
    dev.write64Atomic(0x500, 5);
    EXPECT_EQ(dev.compareAndSwap64(0x500, 5, 6), 5u); // success
    EXPECT_EQ(dev.read64(0x500), 6u);
    EXPECT_EQ(dev.compareAndSwap64(0x500, 5, 7), 6u); // failure
    EXPECT_EQ(dev.read64(0x500), 6u);
}

TEST(NvmDeviceTest, FetchAddReturnsPrevious)
{
    NvmDevice dev(1 << 16);
    dev.write64Atomic(0x600, 10);
    EXPECT_EQ(dev.fetchAdd64(0x600, 5), 10u);
    EXPECT_EQ(dev.read64(0x600), 15u);
}

TEST(NvmDeviceTest, PendingWriteCountTracksJournal)
{
    NvmDevice dev(1 << 16);
    EXPECT_EQ(dev.pendingWrites(), 0u);
    const uint64_t v = 1;
    dev.write(0, &v, 8);
    dev.write(8, &v, 8);
    EXPECT_EQ(dev.pendingWrites(), 2u);
    dev.persist();
    EXPECT_EQ(dev.pendingWrites(), 0u);
}

TEST(NvmDeviceTest, BytesWrittenAccumulates)
{
    NvmDevice dev(1 << 16);
    const uint64_t v = 1;
    dev.write(0, &v, 8);
    dev.write64Atomic(8, 2);
    EXPECT_EQ(dev.bytesWritten(), 16u);
}

TEST(NvmDeviceTest, TooSmallDeviceRejected)
{
    EXPECT_THROW(NvmDevice dev(16), std::invalid_argument);
}

/** Whole image of @p dev (reads of untouched pages return zeros). */
std::vector<uint8_t>
imageOf(const NvmDevice &dev)
{
    std::vector<uint8_t> out(dev.size());
    dev.read(0, out.data(), out.size());
    return out;
}

TEST(NvmDeviceTest, SyncFromCopiesImageAndDiscardsStagedWrites)
{
    constexpr uint64_t kSize = 1 << 20;
    NvmDevice primary(kSize);
    std::vector<uint8_t> blob(10000);
    for (size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<uint8_t>(i * 7 + 1);
    primary.write(3000, blob.data(), blob.size()); // spans 4 pages
    primary.persist();
    primary.write64Atomic(kSize - 8, 0xfeed);
    const uint64_t staged = 0xabcd;
    primary.write(0x40000, &staged, 8); // staged writes ship as visible

    MirrorNode mirror(100, kSize);
    NvmDevice &replica = *mirror.releaseDevice();
    // Durable replica bytes where the primary is zero...
    std::vector<uint8_t> junk(6000, 0x5a);
    replica.write(0x80000 - 100, junk.data(), junk.size());
    replica.persist();
    // ...and staged writes, one overlapping a primary page.
    replica.write(3000, junk.data(), 64);
    replica.write(0x90000, junk.data(), 8);
    ASSERT_EQ(replica.pendingWrites(), 2u);

    const uint64_t written0 = replica.bytesWritten();
    const uint64_t replicated0 = mirror.bytesReplicated();
    const uint64_t persists0 = mirror.persistCount();
    mirror.syncFrom(primary);

    EXPECT_EQ(imageOf(replica), imageOf(primary));
    EXPECT_EQ(replica.pendingWrites(), 0u);
    EXPECT_EQ(replica.bytesWritten() - written0, kSize);
    EXPECT_EQ(mirror.bytesReplicated() - replicated0, kSize);
    EXPECT_EQ(mirror.persistCount() - persists0, 1u);
    // The synced image is durable: nothing is left to roll back.
    replica.crash();
    EXPECT_EQ(imageOf(replica), imageOf(primary));
}

TEST(NvmDeviceTest, UndoArenaIsReusedAcrossPersist)
{
    NvmDevice dev(1 << 16);
    const std::vector<uint8_t> a(32, 0x11), b(16, 0x22), c(64, 0x33),
        d(8, 0x44), torn(64, 0x55);
    dev.write(0x100, a.data(), a.size());
    dev.persist();
    // Overlapping staged writes; only the first survives the crash.
    dev.write(0x108, b.data(), b.size());
    dev.write(0x100, c.data(), c.size());
    dev.write(0x110, d.data(), d.size());
    dev.crashPartial(1);
    std::vector<uint8_t> got(0x40);
    dev.read(0x100, got.data(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
        const uint8_t expect =
            i < 0x08 ? 0x11 : i < 0x18 ? 0x22 : i < 0x20 ? 0x11 : 0;
        EXPECT_EQ(got[i], expect) << "byte " << i;
    }
    EXPECT_EQ(dev.pendingWrites(), 0u);

    // A second round through the same arena after a persist.
    dev.write(0x100, c.data(), c.size());
    dev.write(0x120, d.data(), d.size());
    dev.persist();
    dev.write(0x118, b.data(), b.size());
    dev.applyTornWrite(0x100, torn.data(), torn.size(), 24);
    dev.write(0x104, d.data(), d.size());
    dev.crash();
    dev.read(0x100, got.data(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
        // Torn prefix [0, 24) is durable; the staged write at 0x118
        // rolls back to the persisted 0x33/0x44 bytes under it, and the
        // staged write at 0x104 rolls back to the torn prefix.
        const uint8_t expect = i < 24               ? 0x55
                               : i >= 0x20 && i < 0x28 ? 0x44
                                                       : 0x33;
        EXPECT_EQ(got[i], expect) << "byte " << i;
    }
}

/** Minor page faults taken by this process so far. */
long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

TEST(NvmDeviceTest, UntouchedImagesCostNoPages)
{
    ClusterConfig cfg;
    cfg.backend.nvm_size = 64ull << 20;
    cfg.mirrors_per_backend = 1;
    const long before = minorFaults();
    {
        Cluster cluster(cfg);
        ASSERT_NE(cluster.backend(1), nullptr);
    }
    // Eager zero-fill of the back-end and mirror images alone would take
    // about 32,768 faults (2 x 64 MiB of 4 KiB pages).
    EXPECT_LE(minorFaults() - before, 2048);
}

TEST(NvmDeviceTest, ConcurrentReadersAndWriterAreSafe)
{
    NvmDevice dev(1 << 16);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (uint64_t i = 0; !stop.load(); ++i) {
            dev.write64Atomic(0x700, i);
        }
    });
    uint64_t last = 0;
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = dev.read64(0x700);
        EXPECT_GE(v, last); // monotonic writer, atomic reads
        last = v;
    }
    stop.store(true);
    writer.join();
}

} // namespace
} // namespace asymnvm
