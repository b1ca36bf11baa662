#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <coroutine>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/tatp.h"
#include "cluster/cluster.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/queue.h"
#include "ds/stack.h"
#include "calibrate.h"
#include "oracle.h"
#include "trace.h"

namespace perfbench {

using namespace asymnvm;

namespace {

constexpr NodeId kBe = 1;
/** Timed requests between two calibration slices. */
constexpr uint64_t kCalibEvery = 64;
/** Group-commit batch: the library default, identical on every run. */
constexpr uint32_t kBatch = 1024;
constexpr uint64_t kSessionIdBase = 11;
constexpr uint64_t kKvBytes = sizeof(Key) + Value::kSize;

/** splitmix64 finalizer: a bijection, so distinct inputs stay distinct. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** A value naming its key and write version, so stale reads show. */
Value
makeValue(uint64_t a, uint64_t b)
{
    Value v;
    std::memcpy(v.bytes.data(), &a, sizeof(a));
    std::memcpy(v.bytes.data() + sizeof(a), &b, sizeof(b));
    return v;
}

rusage
selfUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Samples of one traced op or transaction type. */
struct OpSamples
{
    std::vector<uint64_t> lat;  //!< virtual ns
    std::vector<uint64_t> host; //!< host ns spent inside the op's own code
};

/** Per-op record filled by probed() for ops inside a pipelined window. */
struct OpProbe
{
    const char *name = "";
    uint64_t v0 = 0, v1 = 0;
    int64_t h0 = 0, h1 = 0;
    int64_t self_ns = 0;
};

/**
 * Traced-run wrapper around one pipelined op: timestamps its admission
 * and completion on the session clock and sums the host time spent in
 * its own resumes. It never touches the session, so the virtual-time
 * result is the same as running @p inner unwrapped.
 */
OpTask
probed(OpTask inner, FrontendSession *s, OpProbe *p)
{
    p->v0 = s->clock().now();
    p->h0 = hostNs();
    for (;;) {
        const int64_t h = hostNs();
        inner.resume();
        p->self_ns += hostNs() - h;
        if (inner.done())
            break;
        co_await std::suspend_always{};
    }
    p->v1 = s->clock().now();
    p->h1 = hostNs();
    co_return inner.status();
}

/**
 * One repetition's deployment and measurement state: the cluster, the
 * sessions, the timed-phase boundaries, the request latencies and the
 * oracle's violation log.
 */
class Harness
{
  public:
    explicit Harness(const Options &opt) : opt_(opt), tracer_(opt.trace) {}

    const Options &opt() const { return opt_; }
    bool tracing() const { return tracer_.enabled(); }
    FrontendSession &session(size_t i) { return *sessions_[i]; }
    size_t sessions() const { return sessions_.size(); }
    BackendNode &backend() { return *cluster_->backend(kBe); }

    /** Record an oracle violation or unexpected status. */
    void fail(const std::string &what)
    {
        ++failed_;
        if (errors_.size() < 8)
            errors_.push_back(what);
    }

    /** True when @p st is Ok; records a violation otherwise. */
    bool expectOk(Status st, const char *what)
    {
        if (ok(st))
            return true;
        fail(std::string(what) + ": " + statusName(st));
        return false;
    }

    /**
     * Build one back-end with one mirror and @p n RCB sessions, then
     * start the preload span. Host time from here to startTimed() is
     * the set-up time.
     */
    void deploy(uint32_t n, uint64_t cache_bytes, uint32_t depth)
    {
        flt0_ = selfUsage().ru_minflt;
        h_setup0_ = hostNs();
        ClusterConfig cc;
        cc.num_backends = 1;
        cc.mirrors_per_backend = 1;
        cc.backend.nvm_size = 64ull << 20;
        cluster_ = std::make_unique<Cluster>(cc);
        for (uint32_t i = 0; i < n; ++i) {
            SessionConfig sc =
                SessionConfig::rcb(kSessionIdBase + i, cache_bytes, kBatch);
            sc.pipeline_depth = depth;
            auto s = cluster_->makeSession(sc);
            if (s == nullptr)
                throw std::runtime_error("session failed to connect");
            sessions_.push_back(std::move(s));
        }
        h_backend_ = hostNs();
        preload_span_ = tracer_.begin("preload", 0, 0, 0, h_backend_,
                                      snapAll());
    }

    /** End set-up (after a flushed preload); start the timed phase. */
    void startTimed()
    {
        const int64_t h = hostNs();
        tracer_.end(preload_span_, session(0).clock().now(), h, snapAll());
        setup_s_ = static_cast<double>(h - h_setup0_) * 1e-9;
        backend_s_ = static_cast<double>(h_backend_ - h_setup0_) * 1e-9;
        preload_s_ = static_cast<double>(h - h_backend_) * 1e-9;
        const rusage ru = selfUsage();
        flt_setup_ = static_cast<uint64_t>(ru.ru_minflt - flt0_);
        flt0_ = ru.ru_minflt;
        c0_ = snapAll();
        for (auto &s : sessions_)
            v0_.push_back(s->clock().now());
        req0_ = req_;
        timed_ = true;
        h0_ = hostNs();
    }

    /** Id of the next request (spans and the oracle's undo log). */
    uint64_t nextRequest() const { return req_; }

    /**
     * One closed-loop request of @p nops ops on session @p si: its
     * virtual latency is a sample, and in the traced run it is a span
     * named @p name. Returns true when a group commit completed during
     * it, which acknowledges every earlier request of the session.
     */
    template <typename Fn>
    bool request(size_t si, const char *name, uint64_t nops, Fn &&fn)
    {
        FrontendSession &s = session(si);
        const uint64_t commits = s.commitHistogram().count();
        const uint64_t v0 = s.clock().now();
        int64_t span = -1;
        int64_t h0 = 0;
        if (tracing()) {
            const Counters c = snap(si);
            h0 = hostNs();
            span = tracer_.begin(name, static_cast<uint32_t>(si), req_, v0,
                                 h0, c);
        }
        fn(span);
        const uint64_t v1 = s.clock().now();
        lat_.push_back(v1 - v0);
        if (tracing()) {
            const int64_t h1 = hostNs();
            tracer_.end(span, v1, h1, snap(si));
            OpSamples &os = op_samples_[name];
            os.lat.push_back(v1 - v0);
            os.host.push_back(static_cast<uint64_t>(h1 - h0));
        }
        ++req_;
        ops_ += nops;
        if (timed_ && (req_ - req0_) % kCalibEvery == 0) {
            calib_ns_ += calib_.slice();
            ++calib_slices_;
        }
        return s.commitHistogram().count() != commits;
    }

    /**
     * One op inside the current request on session @p si; in the traced
     * run it is a child span named @p name with its own samples.
     */
    template <typename Fn>
    Status op(size_t si, const char *name, Fn &&fn)
    {
        if (!tracing())
            return fn();
        FrontendSession &s = session(si);
        const uint64_t v0 = s.clock().now();
        const Counters c = snap(si);
        const int64_t h0 = hostNs();
        const int64_t span = tracer_.begin(
            name, static_cast<uint32_t>(si), req_, v0, h0, c);
        const Status st = fn();
        const uint64_t v1 = s.clock().now();
        const int64_t h1 = hostNs();
        tracer_.end(span, v1, h1, snap(si));
        OpSamples &os = op_samples_[name];
        os.lat.push_back(v1 - v0);
        os.host.push_back(static_cast<uint64_t>(h1 - h0));
        return st;
    }

    /** Traced run: account one op that ran inside window @p parent. */
    void addProbe(size_t si, int64_t parent, const OpProbe &p)
    {
        Span sp;
        sp.name = p.name;
        sp.session = static_cast<uint32_t>(si);
        sp.req = req_;
        sp.parent = parent;
        sp.v0 = p.v0;
        sp.v1 = p.v1;
        sp.h0 = p.h0;
        sp.h1 = p.h1;
        tracer_.add(sp);
        OpSamples &os = op_samples_[p.name];
        os.lat.push_back(p.v1 - p.v0);
        os.host.push_back(static_cast<uint64_t>(p.self_ns));
    }

    /**
     * Recovery kept @p kept of the @p tail writes no commit had
     * acknowledged. Legal either way, but a drop with recover_us means
     * recovery stopped replaying, not that it got faster.
     */
    void noteTail(uint64_t kept, uint64_t tail)
    {
        tail_kept_ += kept;
        tail_ += tail;
    }

    /** User bytes (key + value) of one completed write. */
    void ackWrite(uint64_t bytes) { user_bytes_ += bytes; }

    /**
     * Close the timed phase after the last request. There is no closing
     * flush: the power failure hits with each session's last group
     * commit still open, so recovery has op logs to replay.
     */
    void endTimed()
    {
        for (auto &s : sessions_)
            v1_.push_back(s->clock().now());
        h1_ = hostNs();
        timed_ = false;
        c1_ = snapAll();
        const rusage ru = selfUsage();
        flt_run_ = static_cast<uint64_t>(ru.ru_minflt - flt0_);
    }

    /**
     * Power-fail the back-end (unpersisted NVM rolls back), restart it
     * from its device, then fail every session over to the new
     * incarnation, let @p reopen re-open its handles, and recover.
     * recover_us runs from the failure to the last session's recovery.
     */
    template <typename Reopen>
    void crashAndRecover(Reopen &&reopen)
    {
        uint64_t t = 0;
        for (auto &s : sessions_)
            t = std::max(t, s->clock().now());
        // Counters restart with the new incarnation, so these spans
        // carry no counter delta.
        const int64_t crash = tracer_.begin("crash", 0, req_, t, hostNs(),
                                            Counters{});
        cluster_->crashBackendTransient(kBe);
        expectOk(cluster_->restartBackend(kBe, t), "restartBackend");
        tracer_.end(crash, t, hostNs(), Counters{});
        uint64_t done = t;
        for (size_t i = 0; i < sessions(); ++i) {
            FrontendSession &s = session(i);
            s.clock().advanceTo(t);
            const int64_t span = tracer_.begin(
                "recover", static_cast<uint32_t>(i), req_, t, hostNs(),
                Counters{});
            s.simulateCrash();
            expectOk(s.failover(kBe, &backend()), "failover");
            expectOk(reopen(i), "reopen");
            expectOk(s.recover(), "recover");
            expectOk(s.flushAll(), "post-recovery flushAll");
            tracer_.end(span, s.clock().now(), hostNs(), Counters{});
            done = std::max(done, s.clock().now());
        }
        recover_ns_ = done - t;
    }

    RunResult finish();

  private:
    Counters snap(size_t si)
    {
        return sessionCounters(session(si)) + backendCounters(backend());
    }

    Counters snapAll()
    {
        Counters c = backendCounters(backend());
        for (auto &s : sessions_)
            c = c + sessionCounters(*s);
        return c;
    }

    const Options &opt_;
    Tracer tracer_;
    std::unique_ptr<Cluster> cluster_;
    std::vector<std::unique_ptr<FrontendSession>> sessions_;

    int64_t h_setup0_ = 0, h_backend_ = 0, h0_ = 0, h1_ = 0;
    bool timed_ = false;
    uint64_t req0_ = 0; //!< req_ when the timed phase started
    // Calibration slices run every kCalibEvery timed requests; their
    // time is not the timed phase's.
    Calibrator calib_;
    int64_t calib_ns_ = 0;
    uint64_t calib_slices_ = 0;
    double setup_s_ = 0, backend_s_ = 0, preload_s_ = 0;
    long flt0_ = 0;
    uint64_t flt_setup_ = 0, flt_run_ = 0;
    int64_t preload_span_ = -1;

    Counters c0_{}, c1_{};
    std::vector<uint64_t> v0_, v1_; //!< per-session timed-phase clocks
    std::vector<uint64_t> lat_;     //!< virtual latency per request
    std::map<std::string, OpSamples> op_samples_;
    uint64_t req_ = 0;
    uint64_t ops_ = 0;
    uint64_t user_bytes_ = 0;
    uint64_t recover_ns_ = 0;
    uint64_t tail_kept_ = 0, tail_ = 0;

    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

RunResult
Harness::finish()
{
    RunResult r;
    const Counters d = c1_ - c0_;
    uint64_t elapsed = 0; // the slowest session's timed virtual time
    for (size_t i = 0; i < v0_.size(); ++i)
        elapsed = std::max(elapsed, v1_[i] - v0_[i]);
    const uint64_t ops = ops_;

    // Fault-free runs must absorb nothing: a retry is a failure.
    if (d[kRetries] != 0)
        fail("rdma retries on a fault-free run: " +
             std::to_string(d[kRetries]));
    r.attempted = ops;
    r.failed = failed_;
    r.errors = errors_;

    Metrics &v = r.virt;
    v.emplace_back("kops", ratio(ops * 1000000, elapsed));
    v.emplace_back("lat_p50_ns", percentile(lat_, 50));
    v.emplace_back("lat_p999_ns", percentile(lat_, 99.9));
    v.emplace_back("lat_samples", static_cast<double>(lat_.size()));
    v.emplace_back("write_amp", ratio(d[kNvmBytesWritten], user_bytes_));
    v.emplace_back("recover_us", static_cast<double>(recover_ns_) / 1000.0);
    v.emplace_back("frontend.recover.tail_kept_frac",
                   ratio(tail_kept_, tail_));
    v.emplace_back("ops", static_cast<double>(ops));
    v.emplace_back("elapsed_ns", static_cast<double>(elapsed));

    // Per-layer counters over the timed phase.
    v.emplace_back("ds.remote_reads_per_lookup",
                   ratio(d[kVerbReads] - d[kPrefetchIssued], ops));
    v.emplace_back("frontend.cache.hit_ratio",
                   ratio(d[kCacheHits], d[kCacheHits] + d[kCacheMisses]));
    v.emplace_back("frontend.cache.evictions_per_op",
                   ratio(d[kCacheEvictions], ops));
    v.emplace_back("frontend.prefetch.useful_ratio",
                   ratio(d[kPrefetchHits],
                         d[kPrefetchHits] + d[kPrefetchWasted]));
    v.emplace_back("frontend.pipeline.reads_per_round",
                   ratio(d[kPipeBatchedReads], d[kPipeRounds]));
    v.emplace_back("frontend.pipeline.dep_stalls_per_op",
                   ratio(d[kPipeDepStalls], ops));
    v.emplace_back("frontend.commit.per_kop", ratio(d[kCommits] * 1000, ops));
    v.emplace_back("frontend.commit.mean_ns",
                   ratio(d[kCommitNs], d[kCommits]));
    v.emplace_back("rdma.doorbells_per_op", ratio(d[kDoorbells], ops));
    v.emplace_back("rdma.wqes_per_op", ratio(d[kWqes], ops));
    // A gather is one round trip however many reads it carries.
    v.emplace_back("rdma.round_trips_per_op",
                   ratio(d[kVerbReads] - d[kNicGatherWqes] + d[kReadGathers] +
                             d[kVerbWrites] + d[kVerbAtomics],
                         ops));
    v.emplace_back("rdma.bytes_per_op", ratio(d[kVerbBytes], ops));
    v.emplace_back("rdma.retries", static_cast<double>(d[kRetries]));
    v.emplace_back("nic.busy_frac", ratio(d[kNicBusyNs], elapsed));
    v.emplace_back("nic.verbs_per_op", ratio(d[kNicVerbs], ops));
    v.emplace_back("nic.gather_batches_per_op", ratio(d[kNicGathers], ops));
    v.emplace_back("backend.busy_ns_per_op", ratio(d[kBackendBusyNs], ops));
    v.emplace_back("backend.replayed_entries_per_op",
                   ratio(d[kBackendReplayed], ops));
    v.emplace_back("backend.rpc_per_op", ratio(d[kBackendRpc], ops));
    v.emplace_back("log.wire_bytes_per_op", ratio(d[kLogWireBytes], ops));
    v.emplace_back("log.wire_per_payload",
                   ratio(d[kLogWireBytes], d[kLogPayloadBytes]));
    v.emplace_back("nvm.bytes_written_per_op",
                   ratio(d[kNvmBytesWritten], ops));
    v.emplace_back("mirror.batches_per_op", ratio(d[kMirrorBatches], ops));
    v.emplace_back("mirror.persists_per_op", ratio(d[kMirrorPersists], ops));
    v.emplace_back("mirror.bytes_per_op", ratio(d[kMirrorBytes], ops));

    Metrics &h = r.host;
    h.emplace_back("setup_s", setup_s_);
    h.emplace_back("host_ns_per_op",
                   ratio(static_cast<uint64_t>(h1_ - h0_ - calib_ns_), ops));
    h.emplace_back("calib.slice_ns",
                   ratio(static_cast<uint64_t>(calib_ns_), calib_slices_));
    h.emplace_back("peak_rss_mb",
                   static_cast<double>(selfUsage().ru_maxrss) / 1024.0);
    h.emplace_back("host.setup.backend_s", backend_s_);
    h.emplace_back("host.setup.preload_s", preload_s_);
    h.emplace_back("host.minor_faults.setup", static_cast<double>(flt_setup_));
    h.emplace_back("host.minor_faults.run", static_cast<double>(flt_run_));

    if (tracing()) {
        for (auto &[name, os] : op_samples_) {
            if (name.find('.') == std::string::npos)
                continue; // request kinds, not a layer's op
            v.emplace_back(name + ".lat_p50_ns", percentile(os.lat, 50));
            v.emplace_back(name + ".lat_p999_ns", percentile(os.lat, 99.9));
            h.emplace_back(name + ".host_ns", percentile(os.host, 50));
        }
        // Host time of the timed requests that ran a group commit: the
        // share of host cost the commit path takes.
        int64_t flush_ns = 0;
        for (const Span &sp : tracer_.spans())
            if (sp.parent == -1 && sp.delta[kCommits] != 0 &&
                std::strcmp(sp.name, "preload") != 0)
                flush_ns += sp.h1 - sp.h0;
        h.emplace_back("host.flush_ns_per_op",
                       ratio(static_cast<uint64_t>(flush_ns), ops));
        if (!opt_.trace_path.empty() && !tracer_.write(opt_.trace_path))
            fail("cannot write trace to " + opt_.trace_path);
    }
    return r;
}

/**
 * When a one-session timed phase ends: after @c commits group commits,
 * as soon as the open batch holds at least @c open_ops writes. The power
 * failure then always finds about the same number of op logs to
 * replay, so recover_us measures recovery rather than where in the
 * batch cycle the run happened to stop.
 */
struct StopRule
{
    uint64_t commits;
    uint32_t open_ops;

    static StopRule forOptions(const Options &opt)
    {
        return opt.smoke ? StopRule{0, 64} : StopRule{4, 512};
    }

    bool done(uint64_t commits_seen, const FrontendSession &s) const
    {
        return commits_seen >= commits && s.opsInBatch() >= open_ops;
    }
};

/** Read back one keyed structure's value for every universe key. */
template <typename Lookup>
void
readTable(Harness &h, const Model &m, size_t t, Model::Image *img,
          Lookup &&lookup)
{
    auto &out = img->tables[t];
    for (Key k : m.universe(t)) {
        Value v;
        const Status st = lookup(k, &v);
        if (ok(st))
            out[k] = v;
        else if (st == Status::NotFound)
            out[k] = std::nullopt;
        else
            h.fail(std::string("verify lookup: ") + statusName(st));
    }
}

/** Check the recovered image against the model; see Model. */
void
checkImage(Harness &h, Model &m, const Model::Image &img, const char *what)
{
    const size_t tail = m.pending();
    if (!m.matchPrefix(img))
        h.fail(std::string(what) +
               ": recovered state is not the acknowledged state plus a "
               "prefix of the unacknowledged tail");
    h.noteTail(m.pending(), tail);
}

// ---------------------------------------------------------------------
// read_zipf: one session, one B+tree, 10% cache, windows of 8 pipelined
// ops (95% find / 5% update), Zipf(0.99) keys.
// ---------------------------------------------------------------------

void
readZipf(Harness &h)
{
    const Options &opt = h.opt();
    const uint64_t n = opt.smoke ? 2000 : 50000;
    const StopRule stop = StopRule::forOptions(opt);
    constexpr uint32_t kDepth = 8;
    constexpr uint32_t kWritePct = 5;

    std::vector<Key> keys(n);
    Model m(1, 0);
    for (uint64_t i = 0; i < n; ++i) {
        keys[i] = mix64((opt.seed << 32) ^ i);
        if (!m.table(0).emplace(keys[i], makeValue(keys[i], 0)).second)
            h.fail("duplicate generated key");
    }

    h.deploy(1, n * kKvBytes / 10, kDepth);
    FrontendSession &s = h.session(0);
    auto tree = std::make_unique<BpTree>();
    h.expectOk(BpTree::create(s, kBe, "zipf", tree.get()), "create");
    for (Key k : keys)
        h.expectOk(tree->insert(k, m.table(0)[k]), "preload insert");
    h.expectOk(s.flushAll(), "preload flushAll");
    h.startTimed();

    ZipfGenerator zipf(n, 0.99, mix64(opt.seed ^ 0x21f));
    Rng rng(mix64(opt.seed ^ 0x3c5));
    uint64_t version = 0;
    std::vector<OpTask> tasks(kDepth);
    std::vector<Status> results(kDepth);
    std::vector<Value> found(kDepth);
    std::vector<OpProbe> probes(kDepth);
    Key wkey[kDepth];
    bool is_write[kDepth];
    Value wval[kDepth];
    for (uint64_t commits = 0; !stop.done(commits, s);) {
        for (uint32_t i = 0; i < kDepth; ++i) {
            wkey[i] = keys[zipf.next()];
            is_write[i] = rng.nextBounded(100) < kWritePct;
            if (is_write[i]) {
                wval[i] = makeValue(wkey[i], ++version);
                tasks[i] = tree->insertAsync(wkey[i], wval[i]);
            } else {
                tasks[i] = tree->findAsync(wkey[i], &found[i]);
            }
            if (h.tracing()) {
                probes[i] = OpProbe{};
                probes[i].name = is_write[i] ? "ds.insert" : "ds.find";
                tasks[i] = probed(std::move(tasks[i]), &s, &probes[i]);
            }
        }
        const uint64_t req = h.nextRequest();
        const bool committed = h.request(0, "window", kDepth, [&](int64_t sp) {
            s.executePipelined(tasks, results);
            if (h.tracing())
                for (const OpProbe &p : probes)
                    h.addProbe(0, sp, p);
        });
        // Same-key ops in a window keep admission order; a find may also
        // observe a same-key write admitted after it (they overlap).
        for (uint32_t i = 0; i < kDepth; ++i) {
            if (is_write[i]) {
                if (h.expectOk(results[i], "insertAsync")) {
                    m.put(0, wkey[i], wval[i], req);
                    h.ackWrite(kKvBytes);
                }
                continue;
            }
            Value want;
            if (!h.expectOk(results[i], "findAsync") ||
                !ok(m.get(0, wkey[i], &want)))
                continue;
            bool match = found[i] == want;
            for (uint32_t j = i + 1; j < kDepth && !match; ++j)
                match = is_write[j] && wkey[j] == wkey[i] &&
                        found[i] == wval[j];
            if (!match)
                h.fail("findAsync returned a stale or foreign value");
        }
        if (committed) {
            m.ack(req);
            ++commits;
        }
    }
    h.endTimed();

    std::unique_ptr<BpTree> reopened;
    h.crashAndRecover([&](size_t) {
        reopened = std::make_unique<BpTree>();
        return BpTree::open(s, kBe, "zipf", reopened.get());
    });
    Model::Image img;
    img.tables.resize(1);
    readTable(h, m, 0, &img,
              [&](Key k, Value *v) { return reopened->find(k, v); });
    checkImage(h, m, img, "read_zipf tree");
    if (reopened->size() != m.table(0).size())
        h.fail("tree size differs from the recovered model");
}

// ---------------------------------------------------------------------
// write_mix: four sessions at depth 1, each owning a hash table, a
// B+tree, a stack and a queue; 100% writes; the cache holds everything.
// ---------------------------------------------------------------------

struct MixStructures
{
    HashTable ht;
    BpTree tree;
    Stack stack;
    Queue queue;
};

// Model indexes of one session's structures.
enum : size_t
{
    kHash = 0,
    kTree = 1,
    kStack = 0,
    kQueue = 1,
};

/** Check a pop/dequeue result against the model's removed element. */
void
checkPop(Harness &h, Status res, const Value &got,
         const std::optional<Value> &want)
{
    if (!want.has_value()) {
        if (res != Status::NotFound)
            h.fail("pop/dequeue on an empty list did not miss");
    } else if (h.expectOk(res, "pop/dequeue") && got != *want) {
        h.fail("pop/dequeue returned the wrong element");
    }
}

Status
openMix(FrontendSession &s, size_t i, MixStructures *m)
{
    const std::string p = "s" + std::to_string(i) + "/";
    Status st = HashTable::open(s, kBe, p + "hash", &m->ht);
    if (ok(st))
        st = BpTree::open(s, kBe, p + "tree", &m->tree);
    if (ok(st))
        st = Stack::open(s, kBe, p + "stack", &m->stack);
    if (ok(st))
        st = Queue::open(s, kBe, p + "queue", &m->queue);
    return st;
}

void
writeMix(Harness &h)
{
    const Options &opt = h.opt();
    constexpr uint32_t kSessions = 4;
    const uint64_t nkeys = opt.smoke ? 256 : 4096;
    const uint64_t nlist = opt.smoke ? 64 : 1024;
    // Requests per session; each request is two writes (see README).
    const uint64_t per_session = opt.smoke ? 250 : 12500;

    std::vector<std::vector<Key>> keys(kSessions);
    std::vector<Model> model(kSessions, Model(2, 2));
    for (uint32_t i = 0; i < kSessions; ++i)
        for (uint64_t j = 0; j < nkeys; ++j)
            keys[i].push_back(
                mix64((opt.seed << 32) ^ (uint64_t{i} << 24) ^ j));
    // The cache holds each session's whole data set with room to spare
    // for node overhead, so the workload exercises the write path only.
    const uint64_t dataset = 2 * nkeys * kKvBytes + 2 * nlist * Value::kSize;
    h.deploy(kSessions, 4 * dataset, 1);

    std::vector<std::unique_ptr<MixStructures>> ds;
    for (uint32_t i = 0; i < kSessions; ++i) {
        FrontendSession &s = h.session(i);
        auto st = std::make_unique<MixStructures>();
        const std::string p = "s" + std::to_string(i) + "/";
        h.expectOk(HashTable::create(s, kBe, p + "hash", nkeys, &st->ht),
                   "create hash");
        h.expectOk(BpTree::create(s, kBe, p + "tree", &st->tree),
                   "create tree");
        h.expectOk(Stack::create(s, kBe, p + "stack", &st->stack),
                   "create stack");
        h.expectOk(Queue::create(s, kBe, p + "queue", &st->queue),
                   "create queue");
        Model &m = model[i];
        for (Key k : keys[i]) {
            const Value v = makeValue(k, 0);
            h.expectOk(st->ht.put(k, v), "preload put");
            h.expectOk(st->tree.insert(k, v), "preload insert");
            m.table(kHash)[k] = v;
            m.table(kTree)[k] = v;
        }
        for (uint64_t j = 0; j < nlist; ++j) {
            const Value v = makeValue(i, j);
            h.expectOk(st->stack.push(v), "preload push");
            h.expectOk(st->queue.enqueue(v), "preload enqueue");
            m.list(kStack).push_back(v);
            m.list(kQueue).push_back(v);
        }
        h.expectOk(s.flushAll(), "preload flushAll");
        ds.push_back(std::move(st));
    }
    h.startTimed();

    std::vector<Rng> rng;
    for (uint32_t i = 0; i < kSessions; ++i)
        rng.emplace_back(mix64(opt.seed ^ (0x77 + i)));
    std::vector<uint64_t> left(kSessions, per_session);
    uint64_t version = 0;
    for (;;) {
        // Closed loop: the session whose virtual clock is furthest
        // behind issues its next request, so the four share the NIC in
        // virtual-time order.
        size_t si = kSessions;
        for (size_t i = 0; i < kSessions; ++i)
            if (left[i] != 0 &&
                (si == kSessions || h.session(i).clock().now() <
                                        h.session(si).clock().now()))
                si = i;
        if (si == kSessions)
            break;
        --left[si];
        MixStructures &st = *ds[si];
        Model &m = model[si];
        Rng &r = rng[si];
        const uint64_t req = h.nextRequest();
        bool committed = false;
        if (r.nextBounded(100) < 60) {
            // Upsert one key in both keyed structures.
            const Key k = keys[si][r.nextBounded(nkeys)];
            const Value v = makeValue(k, ++version);
            committed = h.request(si, "upsert", 2, [&](int64_t) {
                if (h.expectOk(h.op(si, "ds.put",
                                    [&] { return st.ht.put(k, v); }),
                               "put"))
                    m.put(kHash, k, v, req);
                if (h.expectOk(h.op(si, "ds.insert",
                                    [&] { return st.tree.insert(k, v); }),
                               "insert"))
                    m.put(kTree, k, v, req);
            });
            h.ackWrite(2 * kKvBytes);
        } else {
            // One stack op and one queue op, each a push or a pop.
            const bool push = r.nextBool();
            const bool enqueue = r.nextBool();
            const Value v = makeValue(si, ++version);
            committed = h.request(si, "lists", 2, [&](int64_t) {
                if (push) {
                    if (h.expectOk(h.op(si, "ds.push",
                                        [&] { return st.stack.push(v); }),
                                   "push"))
                        m.pushBack(kStack, v, req);
                } else {
                    Value got;
                    const Status res = h.op(
                        si, "ds.pop", [&] { return st.stack.pop(&got); });
                    checkPop(h, res, got, m.popBack(kStack, req));
                }
                if (enqueue) {
                    if (h.expectOk(h.op(si, "ds.enqueue",
                                        [&] { return st.queue.enqueue(v); }),
                                   "enqueue"))
                        m.pushBack(kQueue, v, req);
                } else {
                    Value got;
                    const Status res = h.op(
                        si, "ds.dequeue",
                        [&] { return st.queue.dequeue(&got); });
                    checkPop(h, res, got, m.popFront(kQueue, req));
                }
            });
            h.ackWrite(Value::kSize * ((push ? 1 : 0) + (enqueue ? 1 : 0)));
        }
        if (committed)
            m.ack(req);
    }
    h.endTimed();

    std::vector<std::unique_ptr<MixStructures>> re(kSessions);
    h.crashAndRecover([&](size_t i) {
        re[i] = std::make_unique<MixStructures>();
        return openMix(h.session(i), i, re[i].get());
    });
    for (uint32_t i = 0; i < kSessions; ++i) {
        MixStructures &st = *re[i];
        Model &m = model[i];
        Model::Image img;
        img.tables.resize(2);
        img.lists.resize(2);
        readTable(h, m, kHash, &img,
                  [&](Key k, Value *v) { return st.ht.get(k, v); });
        readTable(h, m, kTree, &img,
                  [&](Key k, Value *v) { return st.tree.find(k, v); });
        const uint64_t stack_len = st.stack.size();
        const uint64_t queue_len = st.queue.size();
        for (Value v; ok(st.stack.pop(&v));)
            img.lists[kStack].push_back(v);
        std::reverse(img.lists[kStack].begin(), img.lists[kStack].end());
        for (Value v; ok(st.queue.dequeue(&v));)
            img.lists[kQueue].push_back(v);
        checkImage(h, m, img, "write_mix session");
        if (st.ht.size() != m.table(kHash).size() ||
            st.tree.size() != m.table(kTree).size() ||
            stack_len != m.list(kStack).size() ||
            queue_len != m.list(kQueue).size())
            h.fail("structure size differs from the recovered model");
    }
}

// ---------------------------------------------------------------------
// tatp: one session, the standard 80/20 mix over the four B+tree
// indexes, which exceed the 10% cache.
// ---------------------------------------------------------------------

enum : size_t
{
    kSub = 0,
    kAccess = 1,
    kFacility = 2,
    kForwarding = 3,
};

const char *const kTatpTables[] = {"tatp/subscriber", "tatp/access_info",
                                   "tatp/special_facility",
                                   "tatp/call_forwarding"};

/** The population Tatp::create writes (same generator, same order). */
void
tatpPopulation(uint64_t subscribers, Model *m)
{
    Rng rng(subscribers ^ 0x7a7);
    for (uint64_t id = 1; id <= subscribers; ++id) {
        m->table(kSub)[Tatp::subscriberKey(id)] = Value::ofU64(id * 131);
        const uint32_t nai = 1 + rng.nextBounded(4);
        for (uint8_t t = 1; t <= nai; ++t)
            m->table(kAccess)[Tatp::accessKey(id, t)] = Value::ofU64(id + t);
        const uint32_t nsf = 1 + rng.nextBounded(4);
        for (uint8_t t = 1; t <= nsf; ++t) {
            m->table(kFacility)[Tatp::facilityKey(id, t)] = Value::ofU64(1);
            if (rng.nextBool(0.25))
                m->table(kForwarding)[Tatp::forwardingKey(id, t, 8)] =
                    Value::ofString("555-0100");
        }
    }
}

void
tatp(Harness &h)
{
    const Options &opt = h.opt();
    const uint64_t subscribers = opt.smoke ? 500 : 20000;
    const StopRule stop = StopRule::forOptions(opt);

    Model m(4, 0);
    tatpPopulation(subscribers, &m);
    uint64_t rows = 0;
    for (size_t t = 0; t < 4; ++t)
        rows += m.table(t).size();
    h.deploy(1, rows * kKvBytes / 10, 1);
    FrontendSession &s = h.session(0);
    Tatp app;
    h.expectOk(Tatp::create(s, kBe, subscribers, &app), "Tatp::create");
    h.startTimed();

    Rng rng(mix64(opt.seed ^ 0x7a7b));
    uint64_t version = 0;
    for (uint64_t commits = 0; !stop.done(commits, s);) {
        const uint64_t sid = 1 + rng.nextBounded(subscribers);
        const uint8_t sf = static_cast<uint8_t>(1 + rng.nextBounded(4));
        const uint8_t ai = static_cast<uint8_t>(1 + rng.nextBounded(4));
        const uint8_t hour = static_cast<uint8_t>(8 * rng.nextBounded(3));
        const uint64_t dice = rng.nextBounded(100);
        const uint64_t req = h.nextRequest();
        const bool read = dice < 80;
        Status got = Status::Ok, want = Status::Ok;
        Value out, expect;
        bool committed = false;
        if (dice < 35) {
            committed = h.request(0, "apps.tatp.get_subscriber_data", 1,
                                  [&](int64_t) {
                                      got = app.getSubscriberData(sid, &out);
                                  });
            want = m.get(kSub, Tatp::subscriberKey(sid), &expect);
        } else if (dice < 45) {
            committed = h.request(
                0, "apps.tatp.get_new_destination", 1, [&](int64_t) {
                    got = app.getNewDestination(sid, sf, hour, &out);
                });
            Value fac;
            want = m.get(kFacility, Tatp::facilityKey(sid, sf), &fac);
            if (ok(want) && fac.asU64() == 0)
                want = Status::NotFound;
            if (ok(want))
                want = m.get(kForwarding,
                             Tatp::forwardingKey(sid, sf, hour), &expect);
        } else if (dice < 80) {
            committed = h.request(0, "apps.tatp.get_access_data", 1,
                                  [&](int64_t) {
                                      got = app.getAccessData(sid, ai, &out);
                                  });
            want = m.get(kAccess, Tatp::accessKey(sid, ai), &expect);
        } else if (dice < 82) {
            const uint64_t bit = rng.next(), data = rng.next();
            committed = h.request(
                0, "apps.tatp.update_subscriber_data", 1, [&](int64_t) {
                    got = app.updateSubscriberData(sid, sf, bit, data);
                });
            if (ok(got)) {
                m.put(kSub, Tatp::subscriberKey(sid), Value::ofU64(bit), req);
                m.put(kFacility, Tatp::facilityKey(sid, sf),
                      Value::ofU64(data), req);
                h.ackWrite(2 * kKvBytes);
            }
        } else if (dice < 96) {
            const uint64_t loc = rng.next();
            committed = h.request(0, "apps.tatp.update_location", 1,
                                  [&](int64_t) {
                                      got = app.updateLocation(sid, loc);
                                  });
            if (ok(got)) {
                m.put(kSub, Tatp::subscriberKey(sid), Value::ofU64(loc), req);
                h.ackWrite(kKvBytes);
            }
        } else if (dice < 98) {
            const Key k = Tatp::forwardingKey(sid, sf, hour);
            const Value v = makeValue(k, ++version);
            committed = h.request(
                0, "apps.tatp.insert_call_forwarding", 1, [&](int64_t) {
                    got = app.insertCallForwarding(sid, sf, hour, v);
                });
            if (ok(got)) {
                m.put(kForwarding, k, v, req);
                h.ackWrite(kKvBytes);
            }
        } else {
            const Key k = Tatp::forwardingKey(sid, sf, hour);
            committed = h.request(
                0, "apps.tatp.delete_call_forwarding", 1, [&](int64_t) {
                    got = app.deleteCallForwarding(sid, sf, hour);
                });
            want = m.erase(kForwarding, k, req) ? Status::Ok
                                                : Status::NotFound;
            if (ok(got))
                h.ackWrite(sizeof(Key));
        }
        // TATP's designed misses are expected results, not failures.
        if (got != want)
            h.fail(std::string("tatp status ") + statusName(got) +
                   ", expected " + statusName(want));
        else if (ok(got) && read && out != expect)
            h.fail("tatp read returned a wrong value");
        if (committed) {
            m.ack(req);
            ++commits;
        }
    }
    h.endTimed();

    Tatp reopened;
    h.crashAndRecover(
        [&](size_t) { return Tatp::open(s, kBe, &reopened); });
    // Handles register session hooks that capture them: keep them alive.
    std::vector<std::unique_ptr<BpTree>> trees;
    Model::Image img;
    img.tables.resize(4);
    for (size_t t = 0; t < 4; ++t) {
        trees.push_back(std::make_unique<BpTree>());
        BpTree &tree = *trees.back();
        if (h.expectOk(BpTree::open(s, kBe, kTatpTables[t], &tree),
                       "verify open"))
            readTable(h, m, t, &img,
                      [&](Key k, Value *v) { return tree.find(k, v); });
    }
    checkImage(h, m, img, "tatp tables");
    for (size_t t = 0; t < 4; ++t)
        if (trees[t]->size() != m.table(t).size())
            h.fail(std::string("row count differs from the recovered "
                               "model in ") +
                   kTatpTables[t]);
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "read_zipf" || name == "write_mix" || name == "tatp";
}

RunResult
runWorkload(const Options &opt)
{
    Harness h(opt);
    if (opt.workload == "read_zipf")
        readZipf(h);
    else if (opt.workload == "write_mix")
        writeMix(h);
    else
        tatp(h);
    return h.finish();
}

} // namespace perfbench
