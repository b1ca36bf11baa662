/**
 * @file
 * Many-session scale-out at the shared back-end NIC.
 *
 * Section 3.2 pins the scaling bottleneck for fine-grained remote data
 * structure access on the RNIC's IOPS ceiling, not bandwidth; every
 * batching optimization so far coalesces ONE session's verb stream.
 * This bench measures what happens when 1→256 sessions share one
 * back-end, under three NIC models:
 *
 *   legacy   — the cumulative-utilization scalar (nic_cross_session_merge
 *              off): every pre-existing result reproduces bit-identically
 *              under it, but a session's wait ignores who else is live.
 *   noagg    — the per-QP contention model with cross-session doorbell
 *              aggregation disabled (merge_window_ns = 0): every doorbell
 *              pays its own NIC arrival processing and queues behind the
 *              other QPs' round-robin drain.
 *   merge    — the same model with aggregation on: doorbells landing
 *              within the merge window (or while same-class backlog
 *              drains) coalesce into one NIC arrival burst and skip the
 *              per-doorbell overhead.
 *
 * Reported per point: aggregate KOPS (total ops over the slowest
 * session's elapsed virtual time), per-session-latency p50/p99/p999
 * (per-session histograms merged; interpolated percentiles), the worst
 * single session's p99, and the share of doorbells that merged. The
 * merge column should pull ahead of noagg as the session count grows —
 * that delta is the cross-session aggregation win.
 *
 * The second table is the foreground-latency-vs-background-bandwidth
 * frontier: one foreground session runs while a background shipper QP
 * (replication/recovery-replay class) injects bursts at increasing
 * rates, with the QoS arbiter uncapped (bg share 100%) versus capped
 * (25%). Uncapped, foreground p99 collapses once the storm saturates
 * the NIC; capped, the arbiter bounds how much background backlog may
 * drain ahead of each foreground burst and paces the shipper, so
 * foreground p99 holds near its idle-background value while background
 * still moves at the configured share.
 *
 * Emits BENCH_multisession.json with both tables.
 */

#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "ds/hash_table.h"

namespace asymnvm::bench {
namespace {

uint64_t kPreloadPerSession = 200;
uint64_t kOpsPerSession = 400;
uint64_t kFrontierOps = 4000;

/** NIC-model variants of the session sweep. */
enum class NicMode
{
    Legacy,
    NoAgg,
    Merge,
};

const char *
nicModeName(NicMode m)
{
    switch (m) {
      case NicMode::Legacy: return "legacy";
      case NicMode::NoAgg: return "noagg";
      case NicMode::Merge: return "merge";
    }
    return "?";
}

NicQosConfig
nicQosFor(NicMode m)
{
    NicQosConfig q; // defaults: legacy scalar model
    switch (m) {
      case NicMode::Legacy:
        break;
      case NicMode::NoAgg:
        q.cross_session_merge = true;
        q.merge_window_ns = 0;
        break;
      case NicMode::Merge:
        q.cross_session_merge = true;
        break;
    }
    return q;
}

BackendConfig
multiSessionBackend(uint32_t nsessions)
{
    BackendConfig cfg;
    cfg.nvm_size = (48ull << 20) + nsessions * (1ull << 20);
    cfg.max_frontends = std::max(8u, nsessions);
    cfg.max_names = std::max<uint32_t>(64, nsessions + 8);
    cfg.memlog_ring_size = 128ull << 10;
    cfg.oplog_ring_size = 128ull << 10;
    return cfg;
}

/** One row of the session-count sweep. */
struct SweepPoint
{
    NicMode mode = NicMode::Legacy;
    uint32_t sessions = 0;
    double agg_kops = -1;     //!< total ops / slowest session's vtime
    uint64_t p50_ns = 0;      //!< merged per-session op-latency p50
    uint64_t p99_ns = 0;
    uint64_t p999_ns = 0;
    uint64_t worst_p99_ns = 0; //!< max over sessions of per-session p99
    double merged_pct = 0;     //!< doorbells that coalesced (merge only)
    uint64_t nic_verbs = 0;
};

/**
 * k sessions, each with a private hash table on one shared back-end,
 * interleaved at operation granularity (round-robin) so their virtual
 * clocks stay in rough lockstep — the regime in which cross-session
 * timestamps at the NIC are comparable. Per-op latency is the issuing
 * session's clock delta, recorded into a per-session histogram.
 */
SweepPoint
runSweepPoint(NicMode mode, uint32_t nsessions)
{
    SweepPoint out;
    out.mode = mode;
    out.sessions = nsessions;

    BackendConfig bcfg = multiSessionBackend(nsessions);
    bcfg.nic_qos = nicQosFor(mode);
    BackendNode be(1, bcfg);

    struct Lane
    {
        std::unique_ptr<FrontendSession> s;
        HashTable ht;
        Workload w{WorkloadConfig{}};
        Histogram lat;
        uint64_t t0 = 0;
    };
    std::vector<Lane> lanes(nsessions);
    for (uint32_t j = 0; j < nsessions; ++j) {
        Lane &ln = lanes[j];
        ln.s = std::make_unique<FrontendSession>(
            SessionConfig::rcb(j + 1, 256ull << 10, 64));
        if (!ok(ln.s->connect(&be)))
            return out;
        if (!ok(HashTable::create(*ln.s, 1, "ms_" + std::to_string(j), 64,
                                  &ln.ht)))
            return out;
        WorkloadConfig wcfg;
        wcfg.key_space = kPreloadPerSession;
        wcfg.seed = 42 + j;
        preloadKeys(*ln.s, ln.ht, wcfg, kPreloadPerSession);
        WorkloadConfig mcfg = wcfg;
        mcfg.put_ratio = 0.5;
        mcfg.seed = 99 + j;
        ln.w = Workload(mcfg);
        ln.s->resetStats();
        ln.t0 = ln.s->clock().now();
    }
    be.nic().resetStats();

    const uint64_t total_ops = kOpsPerSession * nsessions;
    for (uint64_t i = 0; i < total_ops; ++i) {
        Lane &ln = lanes[i % nsessions];
        const uint64_t op_t0 = ln.s->clock().now();
        const WorkItem item = ln.w.next();
        if (item.op == WorkOp::Put)
            (void)ln.ht.put(item.key, item.value);
        else {
            Value v;
            (void)ln.ht.get(item.key, &v);
        }
        ln.lat.record(ln.s->clock().now() - op_t0);
    }
    for (Lane &ln : lanes)
        (void)ln.s->flushAll();

    uint64_t max_dt = 0;
    Histogram all;
    for (Lane &ln : lanes) {
        max_dt = std::max(max_dt, ln.s->clock().now() - ln.t0);
        out.worst_p99_ns =
            std::max(out.worst_p99_ns, ln.lat.percentile(99));
        all.merge(ln.lat);
    }
    out.agg_kops = Throughput{total_ops, max_dt}.kops();
    out.p50_ns = all.percentile(50);
    out.p99_ns = all.percentile(99);
    out.p999_ns = all.percentile(99.9);
    const uint64_t bursts = be.nic().classBursts(VerbClass::Foreground);
    if (bursts > 0)
        out.merged_pct = 100.0 *
                         be.nic().classMerged(VerbClass::Foreground) /
                         bursts;
    out.nic_verbs = be.nic().verbCount();
    return out;
}

/** One row of the foreground/background frontier. */
struct FrontierPoint
{
    uint32_t bg_share_pct = 100;
    uint64_t bg_wqes_per_round = 0; //!< storm intensity (0 = idle)
    uint64_t fg_p50_ns = 0;
    uint64_t fg_p99_ns = 0;
    double bg_mbps = 0;          //!< background goodput (virtual time)
    double bg_throttle_us = 0;   //!< pacing stall the arbiter charged
    double fg_kops = 0;
};

/**
 * One foreground RCB session against a storm on a background shipper
 * QP. Every 4 foreground ops the shipper rings one burst of
 * @p bg_wqes_per_round WQEs at the back-end NIC (Background class) —
 * the arrival pattern of mirror-replication shipping under load; the
 * burst's own queueing wait is the shipper's problem and is charged to
 * nobody here, but its backlog is what foreground verbs now contend
 * with. 64B per background WQE approximates coalesced log ranges.
 */
FrontierPoint
runFrontierPoint(uint32_t bg_share_pct, uint64_t bg_wqes_per_round)
{
    FrontierPoint out;
    out.bg_share_pct = bg_share_pct;
    out.bg_wqes_per_round = bg_wqes_per_round;

    BackendConfig bcfg = multiSessionBackend(1);
    bcfg.nic_qos.cross_session_merge = true;
    bcfg.nic_qos.bg_share_pct = bg_share_pct;
    BackendNode be(1, bcfg);

    FrontendSession s(SessionConfig::rcb(1, 256ull << 10, 64));
    if (!ok(s.connect(&be)))
        return out;
    HashTable ht;
    if (!ok(HashTable::create(s, 1, "frontier", 64, &ht)))
        return out;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreloadPerSession * 4;
    wcfg.seed = 42;
    preloadKeys(s, ht, wcfg, kPreloadPerSession * 4);
    s.resetStats();
    be.nic().resetStats();

    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.5;
    mcfg.seed = 7;
    Workload w(mcfg);
    Histogram lat;
    uint64_t bg_busy_ns = 0;
    const uint64_t t0 = s.clock().now();
    for (uint64_t i = 0; i < kFrontierOps; ++i) {
        if (bg_wqes_per_round != 0 && i % 4 == 0) {
            // The shipper's clock rides the foreground session's (the
            // back-end batches on commit boundaries of live traffic).
            (void)be.nic().reserveBatch(bg_wqes_per_round,
                                        s.clock().now(),
                                        kShipperQpBase + 1,
                                        VerbClass::Background);
            bg_busy_ns += bg_wqes_per_round * be.nic().serviceNs();
        }
        const uint64_t op_t0 = s.clock().now();
        const WorkItem item = w.next();
        if (item.op == WorkOp::Put)
            (void)ht.put(item.key, item.value);
        else {
            Value v;
            (void)ht.get(item.key, &v);
        }
        lat.record(s.clock().now() - op_t0);
    }
    (void)s.flushAll();

    const uint64_t dt = s.clock().now() - t0;
    out.fg_p50_ns = lat.percentile(50);
    out.fg_p99_ns = lat.percentile(99);
    out.fg_kops = Throughput{kFrontierOps, dt}.kops();
    // Background goodput: 64B per WQE over the background stream's own
    // completion horizon — the run's span plus the pacing stall the
    // arbiter charged the shipper. A capped shipper delivers the same
    // bytes later; dividing by the foreground span alone would make the
    // cap look like a bandwidth win instead of the trade it is.
    const uint64_t bg_wqes = be.nic().classWqes(VerbClass::Background);
    const uint64_t bg_span = dt + be.nic().bgThrottleNs();
    out.bg_mbps =
        bg_span == 0 ? 0 : 64.0 * bg_wqes * 1e9 / (1u << 20) / bg_span;
    out.bg_throttle_us = be.nic().bgThrottleNs() / 1000.0;
    (void)bg_busy_ns;
    return out;
}

void
writeJson(const std::vector<SweepPoint> &sweep,
          const std::vector<FrontierPoint> &frontier, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"multisession\",\n"
                    "  \"unit\": \"kops\",\n  \"points\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint &p = sweep[i];
        std::fprintf(
            f,
            "    {\"mode\": \"%s\", \"sessions\": %u, "
            "\"agg_kops\": %.1f, \"p50_ns\": %" PRIu64 ", "
            "\"p99_ns\": %" PRIu64 ", \"p999_ns\": %" PRIu64 ", "
            "\"worst_session_p99_ns\": %" PRIu64 ", "
            "\"merged_pct\": %.1f}%s\n",
            nicModeName(p.mode), p.sessions, p.agg_kops, p.p50_ns,
            p.p99_ns, p.p999_ns, p.worst_p99_ns, p.merged_pct,
            i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"frontier\": [\n");
    for (size_t i = 0; i < frontier.size(); ++i) {
        const FrontierPoint &p = frontier[i];
        std::fprintf(
            f,
            "    {\"bg_share_pct\": %u, \"bg_wqes_per_round\": %" PRIu64
            ", \"fg_p50_ns\": %" PRIu64 ", \"fg_p99_ns\": %" PRIu64 ", "
            "\"fg_kops\": %.1f, \"bg_mbps\": %.2f, "
            "\"bg_throttle_us\": %.1f}%s\n",
            p.bg_share_pct, p.bg_wqes_per_round, p.fg_p50_ns, p.fg_p99_ns,
            p.fg_kops, p.bg_mbps, p.bg_throttle_us,
            i + 1 < frontier.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

void
run()
{
    if (benchTiny()) {
        kPreloadPerSession = 60;
        kOpsPerSession = 120;
        kFrontierOps = 600;
    }
    std::vector<uint32_t> fleet = {1, 2, 4, 8, 16, 32, 64, 128, 256};
    if (benchTiny())
        fleet = {1, 2, 4, 8};

    printHeader("Session-count sweep at the shared back-end NIC "
                "(HT, 50% put, RCB; per-op latency in ns)",
                "mode     sessions   agg KOPS      p50      p99     p999"
                "   worst-s-p99   merged%");
    std::vector<SweepPoint> sweep;
    for (const NicMode mode :
         {NicMode::Legacy, NicMode::NoAgg, NicMode::Merge}) {
        for (const uint32_t k : fleet) {
            const SweepPoint p = runSweepPoint(mode, k);
            std::printf("%-8s %8u %10.1f %8" PRIu64 " %8" PRIu64
                        " %8" PRIu64 " %13" PRIu64 " %8.1f\n",
                        nicModeName(p.mode), p.sessions, p.agg_kops,
                        p.p50_ns, p.p99_ns, p.p999_ns, p.worst_p99_ns,
                        p.merged_pct);
            sweep.push_back(p);
        }
    }

    printHeader("Foreground latency vs background bandwidth frontier "
                "(1 fg RCB session vs replication-storm QP)",
                "bg-share   bg-wqes/round   fg KOPS   fg-p50(ns)   "
                "fg-p99(ns)   bg MB/s   bg-throttle(us)");
    const uint64_t storms[] = {0, 16, 64, 256};
    std::vector<FrontierPoint> frontier;
    for (const uint32_t share : {100u, 25u}) {
        for (const uint64_t storm : storms) {
            const FrontierPoint p = runFrontierPoint(share, storm);
            std::printf("%8u %15" PRIu64 " %9.1f %12" PRIu64
                        " %12" PRIu64 " %9.2f %17.1f\n",
                        p.bg_share_pct, p.bg_wqes_per_round, p.fg_kops,
                        p.fg_p50_ns, p.fg_p99_ns, p.bg_mbps,
                        p.bg_throttle_us);
            frontier.push_back(p);
        }
    }

    std::printf(
        "\nReference shape: legacy and noagg agree at 1 session; as the"
        "\nfleet grows, noagg pays one NIC arrival processing per"
        "\ndoorbell while merge coalesces most of them (merged%% high at"
        "\nlarge k), so merge's aggregate KOPS pulls ahead. On the"
        "\nfrontier, bg-share 100 lets the storm's backlog drain ahead"
        "\nof foreground verbs (fg p99 collapses as the storm grows);"
        "\nbg-share 25 bounds that backlog per foreground burst and"
        "\npaces the shipper, holding fg p99 within 2x its idle value.\n");

    writeJson(sweep, frontier, "BENCH_multisession.json");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return 0;
}
