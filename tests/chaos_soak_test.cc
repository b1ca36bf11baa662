/**
 * @file
 * Chaos soak: many seeded runs of the mixed-workload chaos harness
 * (src/check/chaos.h) over the transparent-failover cluster. Every seed
 * must finish with zero durability / SWMR violations and zero
 * availability violations (no operation fails while a promotable mirror
 * or a restartable node exists).
 *
 * Seed count defaults to 5000 and is overridable via ASYMNVM_CHAOS_SEEDS
 * (the `chaos_smoke` ctest target runs a short configuration).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "check/chaos.h"

namespace asymnvm {
namespace {

uint32_t
seedCount()
{
    const char *env = std::getenv("ASYMNVM_CHAOS_SEEDS");
    if (env != nullptr) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<uint32_t>(v);
    }
    return 5000;
}

TEST(ChaosSoakTest, AllSeedsHoldDurabilityAndAvailability)
{
    const uint32_t seeds = seedCount();
    uint64_t failovers = 0;
    uint64_t transient = 0;
    uint64_t permanent = 0;
    uint64_t mirror_deaths = 0;
    uint64_t retries = 0;
    uint64_t resends = 0;
    uint64_t audits = 0;
    for (uint32_t seed = 1; seed <= seeds; ++seed) {
        ChaosConfig cfg;
        cfg.seed = seed;
        const ChaosResult r = runChaosSoak(cfg);
        ASSERT_TRUE(r.ok) << "seed " << seed << ": " << r.error;
        ASSERT_EQ(r.ops_done, cfg.num_ops)
            << "seed " << seed << " stopped early: " << r.error;
        failovers += r.failovers;
        transient += r.transient_crashes;
        permanent += r.permanent_failures;
        mirror_deaths += r.mirror_crashes;
        retries += r.verb_retries;
        resends += r.rpc_resends;
        audits += r.audits;
    }
    // The chaos must actually have exercised every failure class across
    // the seed set, or the soak proves nothing.
    EXPECT_GT(transient, 0u);
    EXPECT_GT(permanent, 0u);
    EXPECT_GT(mirror_deaths, 0u);
    EXPECT_GT(failovers, 0u);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(audits, seeds) << "every run audits at least once at the end";
    std::printf("chaos soak: %u seeds, %llu failovers (%llu transient "
                "crashes, %llu permanent, %llu mirror deaths), %llu verb "
                "retries, %llu rpc resends, %llu audits\n",
                seeds, static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(transient),
                static_cast<unsigned long long>(permanent),
                static_cast<unsigned long long>(mirror_deaths),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(resends),
                static_cast<unsigned long long>(audits));
}

TEST(ChaosSoakTest, RunsAreDeterministicPerSeed)
{
    ChaosConfig cfg;
    cfg.seed = 17;
    const ChaosResult a = runChaosSoak(cfg);
    const ChaosResult b = runChaosSoak(cfg);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.ops_done, b.ops_done);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.transient_crashes, b.transient_crashes);
    EXPECT_EQ(a.permanent_failures, b.permanent_failures);
    EXPECT_EQ(a.mirror_crashes, b.mirror_crashes);
    EXPECT_EQ(a.verb_retries, b.verb_retries);
    EXPECT_EQ(a.rpc_resends, b.rpc_resends);
}

} // namespace
} // namespace asymnvm
