/**
 * @file
 * Multi-session chaos soak: k front-end sessions interleave on one
 * transparent-failover cluster while the chaos schedule kills the
 * back-end mid-run. Every seed must finish with zero durability/SWMR
 * violations, zero availability violations, and a clean promotion
 * ledger — epochs contiguous, exactly one promotion record per epoch,
 * every record won by a known session (or orchestrated by the harness).
 *
 * Seed count per session-count defaults to 2000 and is overridable via
 * ASYMNVM_CHAOS_SEEDS (the `chaos_multisession_smoke` ctest target runs
 * a short configuration).
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
    return 2000;
}

TEST(ChaosMultiSessionTest, AllSeedsHoldInvariantsAcrossSessionCounts)
{
    const uint32_t seeds = seedCount();
    for (const uint32_t k : {2u, 4u, 8u}) {
        uint64_t promotions = 0;
        uint64_t won = 0;
        uint64_t lost = 0;
        uint64_t fenced = 0;
        uint64_t failovers = 0;
        uint64_t audits = 0;
        for (uint32_t seed = 1; seed <= seeds; ++seed) {
            ChaosConfig cfg;
            cfg.seed = seed;
            cfg.sessions = k;
            cfg.num_ops = 60 * k; // same per-session depth at every k
            // Condemn more often than the single-session soak: the
            // promotion race is the property under test here.
            cfg.p_permanent = 0.02;
            const ChaosResult r = runChaosSoak(cfg);
            ASSERT_TRUE(r.ok)
                << "k=" << k << " seed " << seed << ": " << r.error;
            ASSERT_EQ(r.ops_done, cfg.num_ops)
                << "k=" << k << " seed " << seed
                << " stopped early: " << r.error;
            // Exactly-once promotion: the epoch ledger (audited for
            // contiguity inside the run) can never fall behind the
            // sessions' combined claim wins.
            ASSERT_EQ(r.promotions_won, r.promotions)
                << "k=" << k << " seed " << seed
                << ": claim wins != promotions";
            promotions += r.promotions;
            won += r.promotions_won;
            lost += r.promotions_lost;
            fenced += r.stale_fenced;
            failovers += r.failovers;
            audits += r.audits;
        }
        // The soak must actually exercise the race it exists to check.
        EXPECT_GT(promotions, 0u) << "k=" << k;
        EXPECT_EQ(won, promotions) << "k=" << k;
        EXPECT_GT(lost, 0u)
            << "k=" << k << ": no session ever lost a claim race";
        EXPECT_GT(fenced, 0u)
            << "k=" << k << ": no zombie session was ever fenced";
        EXPECT_GT(failovers, 0u) << "k=" << k;
        EXPECT_GT(audits, static_cast<uint64_t>(seeds)) << "k=" << k;
        std::printf(
            "multi-session chaos k=%u: %u seeds, %llu promotions "
            "(%llu won / %llu lost claims), %llu stale fences, %llu "
            "failovers, %llu audits\n",
            k, seeds, static_cast<unsigned long long>(promotions),
            static_cast<unsigned long long>(won),
            static_cast<unsigned long long>(lost),
            static_cast<unsigned long long>(fenced),
            static_cast<unsigned long long>(failovers),
            static_cast<unsigned long long>(audits));
    }
}

TEST(ChaosMultiSessionTest, RunsAreDeterministicPerSeed)
{
    ChaosConfig cfg;
    cfg.seed = 23;
    cfg.sessions = 4;
    cfg.num_ops = 240;
    cfg.p_permanent = 0.02;
    const ChaosResult a = runChaosSoak(cfg);
    const ChaosResult b = runChaosSoak(cfg);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.ops_done, b.ops_done);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.promotions_won, b.promotions_won);
    EXPECT_EQ(a.promotions_lost, b.promotions_lost);
    EXPECT_EQ(a.stale_fenced, b.stale_fenced);
    EXPECT_EQ(a.verb_retries, b.verb_retries);
}

} // namespace
} // namespace asymnvm
