#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace asymnvm;

double
percentile(const std::vector<uint64_t> &samples, double p)
{
    if (samples.empty())
        return 0;
    std::vector<uint64_t> s = samples;
    std::sort(s.begin(), s.end());
    const double n = static_cast<double>(s.size());
    const double target = std::clamp(p * n / 100.0, 1e-9, n);
    // 1-based rank; the epsilon keeps p * n / 100 == 19980.000000000004
    // from rounding up to the next sample.
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(target - 1e-6)));
    const uint64_t x = s[rank - 1];
    const auto [lo, hi] = std::equal_range(s.begin(), s.end(), x);
    const double below = static_cast<double>(lo - s.begin());
    const double tied = static_cast<double>(hi - lo);
    return static_cast<double>(x) - 0.5 + (target - below) / tied;
}

const char *const kCtrNames[kNumCtrs] = {
    "verb_reads",      "verb_writes",      "verb_posted",
    "verb_atomics",    "verb_bytes",       "doorbells",
    "wqes",            "read_gathers",     "retries",
    "cache_hits",      "cache_misses",     "cache_evictions",
    "prefetch_issued", "prefetch_hits",    "prefetch_wasted",
    "pipe_rounds",     "pipe_batched_reads", "pipe_dep_stalls",
    "log_wire_bytes",
    "log_payload_bytes", "commits",        "commit_ns",
    "nic_busy_ns",     "nic_verbs",        "nic_gathers",
    "nic_gather_wqes",
    "backend_busy_ns", "backend_replayed", "backend_rpc",
    "mirror_batches",  "mirror_persists",  "mirror_bytes",
    "nvm_bytes_written",
};

Counters
operator-(const Counters &a, const Counters &b)
{
    Counters d{};
    for (size_t i = 0; i < kNumCtrs; ++i)
        d[i] = a[i] - b[i];
    return d;
}

Counters
operator+(const Counters &a, const Counters &b)
{
    Counters s{};
    for (size_t i = 0; i < kNumCtrs; ++i)
        s[i] = a[i] + b[i];
    return s;
}

Counters
sessionCounters(FrontendSession &s)
{
    const SessionStats st = s.stats();
    Counters c{};
    c[kVerbReads] = st.verbs.reads;
    c[kVerbWrites] = st.verbs.writes;
    c[kVerbPosted] = st.verbs.posted;
    c[kVerbAtomics] = st.verbs.atomics;
    c[kVerbBytes] = st.verbs.totalBytes();
    c[kDoorbells] = st.verbs.doorbells;
    c[kWqes] = st.verbs.wqes;
    c[kReadGathers] = st.verbs.read_gathers;
    c[kRetries] = st.retry.totalRetries();
    c[kCacheHits] = s.cache().hits();
    c[kCacheMisses] = s.cache().misses();
    c[kCacheEvictions] = s.cache().evictions();
    c[kPrefetchIssued] = st.prefetch.issued;
    c[kPrefetchHits] = st.prefetch.hits;
    c[kPrefetchWasted] = st.prefetch.wasted;
    c[kPipeRounds] = st.pipeline.rounds;
    c[kPipeBatchedReads] = st.pipeline.batched_reads;
    c[kPipeDepStalls] = st.pipeline.dep_stalls;
    c[kLogWireBytes] = st.logfmt.tx_wire_bytes + st.logfmt.op_wire_bytes;
    c[kLogPayloadBytes] =
        st.logfmt.tx_payload_bytes + st.logfmt.op_payload_bytes;
    const Histogram &commit = s.commitHistogram();
    c[kCommits] = commit.count();
    c[kCommitNs] = static_cast<uint64_t>(
        std::llround(commit.mean() * static_cast<double>(commit.count())));
    return c;
}

Counters
backendCounters(BackendNode &be)
{
    Counters c{};
    c[kNicBusyNs] = be.nic().busyNs();
    c[kNicVerbs] = be.nic().verbCount();
    c[kNicGathers] = be.nic().gatherBatches();
    c[kNicGatherWqes] = be.nic().gatherWqes();
    c[kBackendBusyNs] = be.busyNs();
    c[kBackendReplayed] = be.replayedEntries();
    c[kBackendRpc] = be.rpcCalls();
    const ReplicationStats &r = be.replicationStats();
    c[kMirrorBatches] = r.batches;
    c[kMirrorPersists] = r.persists;
    c[kMirrorBytes] = r.bytes;
    c[kNvmBytesWritten] = be.nvm().bytesWritten();
    return c;
}

int64_t
Tracer::begin(const char *name, uint32_t session, uint64_t req,
              uint64_t v0, int64_t h0, const Counters &snap)
{
    if (!enabled_)
        return -1;
    Span sp;
    sp.name = name;
    sp.session = session;
    sp.req = req;
    sp.parent = current();
    sp.v0 = v0;
    sp.delta = snap; // start snapshot until end() turns it into a delta
    sp.h0 = h0;
    spans_.push_back(sp);
    const int64_t idx = static_cast<int64_t>(spans_.size()) - 1;
    open_.push_back(idx);
    return idx;
}

void
Tracer::end(int64_t idx, uint64_t v1, int64_t h1, const Counters &snap)
{
    if (idx < 0)
        return;
    Span &sp = spans_[static_cast<size_t>(idx)];
    sp.h1 = h1;
    sp.v1 = v1;
    sp.delta = snap - sp.delta;
    if (!open_.empty() && open_.back() == idx)
        open_.pop_back();
}

bool
Tracer::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tname\tsession\treq\tparent\tv_start\tv_end\t"
                    "h_start\th_end");
    for (const char *n : kCtrNames)
        std::fprintf(f, "\t%s", n);
    std::fputc('\n', f);
    const int64_t h_base = spans_.empty() ? 0 : spans_.front().h0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &sp = spans_[i];
        std::fprintf(f, "%zu\t%s\t%u\t%llu\t%lld\t%llu\t%llu\t%lld\t%lld",
                     i, sp.name, sp.session,
                     static_cast<unsigned long long>(sp.req),
                     static_cast<long long>(sp.parent),
                     static_cast<unsigned long long>(sp.v0),
                     static_cast<unsigned long long>(sp.v1),
                     static_cast<long long>(sp.h0 - h_base),
                     static_cast<long long>(sp.h1 - h_base));
        for (uint64_t v : sp.delta)
            std::fprintf(f, "\t%llu", static_cast<unsigned long long>(v));
        std::fputc('\n', f);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
