/**
 * @file
 * Allocator reclaim hysteresis window (FrontendAllocator's
 * hysteresis_cycles): a workload oscillating with a period longer
 * than the window ping-pongs slabs through FreeBlocks/AllocBlocks RPCs,
 * while a window covering the period holds the empties across the quiet
 * cycles — and a permanent demand collapse still drains the surplus.
 */

#include <gtest/gtest.h>

#include <vector>

#include "frontend/allocator.h"
#include "rdma/rpc.h"

namespace asymnvm {
namespace {

constexpr uint64_t kSlab = 1024;

/** Counting mock of the back-end allocator RPC. */
struct MockBackendAlloc
{
    uint64_t next_off = 1 << 20;
    uint64_t alloc_calls = 0;
    uint64_t free_calls = 0;
    uint64_t freed_blocks = 0;

    FrontendAllocator::RpcFn fn()
    {
        return [this](RpcOp op, std::span<const uint64_t> args,
                      std::span<const uint8_t>, uint64_t rets[4]) {
            if (op == RpcOp::AllocBlocks) {
                ++alloc_calls;
                rets[0] = next_off;
                next_off += args[0] * kSlab;
                return Status::Ok;
            }
            if (op == RpcOp::FreeBlocks) {
                ++free_calls;
                freed_blocks += args[1];
                return Status::Ok;
            }
            return Status::InvalidArgument;
        };
    }
};

/**
 * One oscillation period: a heavy cycle drawing @p heavy slabs from the
 * empty list, then @p quiet light cycles drawing @p light each. Every
 * alloc is slab-sized so one alloc consumes exactly one empty slab.
 */
void
runPeriod(FrontendAllocator &a, uint32_t heavy, uint32_t light,
          uint32_t quiet)
{
    std::vector<RemotePtr> held;
    for (uint32_t i = 0; i < heavy; ++i) {
        RemotePtr p;
        ASSERT_EQ(a.alloc(kSlab, &p), Status::Ok);
        held.push_back(p);
    }
    for (const RemotePtr p : held)
        ASSERT_EQ(a.free(p, kSlab), Status::Ok);
    for (uint32_t q = 0; q < quiet; ++q) {
        held.clear();
        for (uint32_t i = 0; i < light; ++i) {
            RemotePtr p;
            ASSERT_EQ(a.alloc(kSlab, &p), Status::Ok);
            held.push_back(p);
        }
        for (const RemotePtr p : held)
            ASSERT_EQ(a.free(p, kSlab), Status::Ok);
    }
}

TEST(AllocHysteresisTest, WindowCoveringPeriodStopsRpcPingPong)
{
    // Period 3 (heavy, light, light). A window of 4 keeps the heavy
    // cycle's demand visible through both light cycles.
    MockBackendAlloc mock;
    FrontendAllocator a(1, kSlab, mock.fn(), /*reclaim_threshold=*/4,
                        /*hysteresis_cycles=*/4);
    runPeriod(a, 16, 2, 2); // warm-up: builds the empty list
    const uint64_t allocs_after_warmup = mock.alloc_calls;
    const uint64_t frees_after_warmup = mock.free_calls;
    for (int period = 0; period < 6; ++period)
        runPeriod(a, 16, 2, 2);
    // Steady state: the held empties absorb every heavy burst — no
    // FreeBlocks during the light cycles, no AllocBlocks re-fetch.
    EXPECT_EQ(mock.free_calls, frees_after_warmup);
    EXPECT_EQ(mock.alloc_calls, allocs_after_warmup);
}

TEST(AllocHysteresisTest, WindowShorterThanPeriodOscillates)
{
    // Same period-3 workload, window 2 (the pre-configurable default):
    // the heavy demand rotates out during the second light cycle, the
    // surplus reclaims, and the next heavy cycle re-fetches — the RPC
    // oscillation this knob exists to kill.
    MockBackendAlloc mock;
    FrontendAllocator a(1, kSlab, mock.fn(), /*reclaim_threshold=*/4,
                        /*hysteresis_cycles=*/2);
    runPeriod(a, 16, 2, 2);
    const uint64_t allocs_after_warmup = mock.alloc_calls;
    const uint64_t frees_after_warmup = mock.free_calls;
    for (int period = 0; period < 6; ++period)
        runPeriod(a, 16, 2, 2);
    EXPECT_GT(mock.free_calls, frees_after_warmup);
    EXPECT_GT(mock.alloc_calls, allocs_after_warmup);
}

TEST(AllocHysteresisTest, DemandCollapseStillDrainsSurplus)
{
    // A long window must not pin surplus forever: when demand collapses
    // for good, the peak rotates out after window-many quiet cycles and
    // the empties drain to the static threshold.
    MockBackendAlloc mock;
    FrontendAllocator a(1, kSlab, mock.fn(), /*reclaim_threshold=*/4,
                        /*hysteresis_cycles=*/4);
    runPeriod(a, 32, 0, 0); // one big burst, then nothing but trickle
    EXPECT_GT(a.emptySlabsHeld(), 4u);
    for (int cycle = 0; cycle < 8; ++cycle)
        runPeriod(a, 1, 0, 0);
    EXPECT_LE(a.emptySlabsHeld(), 4u + 1u);
    EXPECT_GT(mock.free_calls, 0u);
}

TEST(AllocHysteresisTest, WindowClampsToOne)
{
    MockBackendAlloc mock;
    FrontendAllocator a(1, kSlab, mock.fn(), /*reclaim_threshold=*/4,
                        /*hysteresis_cycles=*/0);
    EXPECT_EQ(a.hysteresisCycles(), 1u);
    // Window 1 tracks only the current cycle — still correct, maximally
    // eager to reclaim.
    runPeriod(a, 8, 1, 1);
    RemotePtr p;
    ASSERT_EQ(a.alloc(kSlab, &p), Status::Ok);
    ASSERT_EQ(a.free(p, kSlab), Status::Ok);
    EXPECT_GT(mock.free_calls, 0u);
}

} // namespace
} // namespace asymnvm
