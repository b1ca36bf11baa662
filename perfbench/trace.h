#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * Benchmark-side observability: exact percentiles over raw samples,
 * snapshots of the library's public counters, and the span recorder the
 * traced run uses.
 *
 * Spans are recorded only around calls the benchmark itself makes into
 * the library (a data-structure op, a TATP transaction, one
 * executePipelined window, flushAll, preload, crash and recovery). Each
 * span carries virtual and host start/end, the session, the request id,
 * its parent span, and the delta of every public counter over its
 * interval. Spans stay in memory and are written out once, at exit.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/backend_node.h"
#include "frontend/session.h"

namespace perfbench {

/**
 * Exact percentile (0 < p <= 100) of raw integer samples: the
 * nearest-rank sample x, interpolated inside the 1-unit class
 * [x - 0.5, x + 0.5) by the share of the samples tied at x that the rank
 * needs (the grouped-data percentile). Without ties this stays within
 * half a unit of x; with many ties — virtual latencies often repeat to
 * the nanosecond — it still moves with the workload's mix.
 */
double percentile(const std::vector<uint64_t> &samples, double p);

/** Public counters, summed over the sessions and back-end they cover. */
enum Ctr : size_t
{
    kVerbReads,
    kVerbWrites,
    kVerbPosted,
    kVerbAtomics,
    kVerbBytes,
    kDoorbells,
    kWqes,
    kReadGathers,
    kRetries,
    kCacheHits,
    kCacheMisses,
    kCacheEvictions,
    kPrefetchIssued,
    kPrefetchHits,
    kPrefetchWasted,
    kPipeRounds,
    kPipeBatchedReads,
    kPipeDepStalls,
    kLogWireBytes,
    kLogPayloadBytes,
    kCommits,
    kCommitNs,
    kNicBusyNs,
    kNicVerbs,
    kNicGathers,
    kNicGatherWqes,
    kBackendBusyNs,
    kBackendReplayed,
    kBackendRpc,
    kMirrorBatches,
    kMirrorPersists,
    kMirrorBytes,
    kNvmBytesWritten,
    kNumCtrs,
};

extern const char *const kCtrNames[kNumCtrs];

using Counters = std::array<uint64_t, kNumCtrs>;

Counters operator-(const Counters &a, const Counters &b);
Counters operator+(const Counters &a, const Counters &b);

/** Session-side counters of @p s. */
Counters sessionCounters(asymnvm::FrontendSession &s);

/** Back-end-side counters (NIC, CPU, replication, NVM) of @p be. */
Counters backendCounters(asymnvm::BackendNode &be);

/** Host time since an arbitrary epoch, ns (steady clock). */
inline int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. */
struct Span
{
    const char *name = "";
    uint32_t session = 0;
    uint64_t req = 0;
    int64_t parent = -1; //!< index of the enclosing span, -1 = root
    uint64_t v0 = 0, v1 = 0; //!< virtual ns on the session's clock
    int64_t h0 = 0, h1 = 0;  //!< host ns
    Counters delta{};        //!< counter change over the span
};

/**
 * In-memory span recorder. Disabled tracers record nothing and cost a
 * branch per call site, so the untraced run measures the library alone.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Open a span at virtual @p v0 / host @p h0; @p snap is the counter
     * snapshot at its start. Returns its index (to pass to end()), or -1
     * when disabled. Callers read the host clock after taking the
     * snapshot and before taking the end one, so spans exclude it.
     */
    int64_t begin(const char *name, uint32_t session, uint64_t req,
                  uint64_t v0, int64_t h0, const Counters &snap);

    /** Record an already-closed span (overlapping pipelined ops). */
    void add(const Span &sp)
    {
        if (enabled_)
            spans_.push_back(sp);
    }

    /** Close span @p idx with its end snapshot. */
    void end(int64_t idx, uint64_t v1, int64_t h1, const Counters &snap);

    /** Innermost open span (parent of the next begin()), -1 if none. */
    int64_t current() const
    {
        return open_.empty() ? -1 : open_.back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as one tab-separated line to @p path. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
