#include "frontend/session.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "common/hash.h"

namespace asymnvm {

// ---------------------------------------------------------------------
// SessionConfig presets (the system rows of Table 3)
// ---------------------------------------------------------------------

SessionConfig
SessionConfig::naive(uint64_t id)
{
    SessionConfig c;
    c.session_id = id;
    c.use_oplog = false;
    c.use_txlog = false;
    c.use_cache = false;
    c.batch_size = 1;
    return c;
}

SessionConfig
SessionConfig::r(uint64_t id)
{
    SessionConfig c;
    c.session_id = id;
    c.use_oplog = true;
    c.use_txlog = true;
    c.use_cache = false;
    c.batch_size = 1;
    return c;
}

SessionConfig
SessionConfig::rc(uint64_t id, uint64_t cache_bytes)
{
    SessionConfig c = r(id);
    c.use_cache = true;
    c.cache_bytes = cache_bytes;
    return c;
}

SessionConfig
SessionConfig::rcb(uint64_t id, uint64_t cache_bytes, uint32_t batch)
{
    SessionConfig c = rc(id, cache_bytes);
    c.batch_size = batch;
    return c;
}

SessionConfig
SessionConfig::symmetricBase(uint64_t id, bool batched)
{
    SessionConfig c;
    c.session_id = id;
    c.symmetric = true;
    c.symmetric_batch = batched;
    c.use_cache = false; // data is already local
    c.batch_size = batched ? 1024 : 1;
    return c;
}

// ---------------------------------------------------------------------
// Construction / connection
// ---------------------------------------------------------------------

FrontendSession::FrontendSession(const SessionConfig &cfg,
                                 const LatencyModel &lat)
    : cfg_(cfg), lat_(lat), verbs_(&clock_, &lat_)
{
    verbs_.setQpId(cfg_.session_id);
    cache_ = std::make_unique<PageCache>(cfg_.cache_policy,
                                         cfg_.cache_bytes, &clock_, &lat_,
                                         cfg_.cache_sample_k,
                                         cfg_.rng_seed);
    if (cfg_.symmetric) {
        // The symmetric primary ships its logs to a remote mirror over
        // the same verbs endpoint (postWrite chain + doorbell) the
        // asymmetric group commit uses, so both baselines pay identical
        // wire mechanics per shipped byte.
        sym_replica_ = std::make_unique<NvmDevice>(kSymLogRingSize);
        sym_nic_ = std::make_unique<NicModel>(lat_.nic_verb_service_ns);
        RdmaTarget t;
        t.nvm = sym_replica_.get();
        t.nic = sym_nic_.get();
        verbs_.attach(kSymReplicaId, t);
    }
}

FrontendSession::~FrontendSession() = default;

Status
FrontendSession::connect(BackendNode *backend)
{
    BackendCtx c;
    c.node = backend;
    const Status st = backend->registerFrontend(cfg_.session_id, &c.slot);
    if (!ok(st))
        return st;
    verbs_.attach(backend->id(), backend->rdmaTarget());
    c.rpc = std::make_unique<RfpRpc>(&verbs_, backend, c.slot);

    auto it = backends_.emplace(backend->id(), std::move(c)).first;
    BackendCtx &ctx = it->second;
    ctx.alloc = std::make_unique<FrontendAllocator>(
        backend->id(), backend->config().block_size,
        [this, id = backend->id()](RpcOp op, std::span<const uint64_t> a,
                                   std::span<const uint8_t> p,
                                   uint64_t r[4]) {
            return rpcCall(backends_.at(id), op, a, p, r);
        },
        /*reclaim_threshold=*/32, cfg_.alloc_hysteresis_cycles);

    // Fetch the persisted log positions (one-sided read of the control
    // block), which restores the shadows after a reconnect.
    const LogControl ctl = backend->readControl(ctx.slot);
    if (!cfg_.symmetric)
        clock_.advance(lat_.rdma_read_rtt_ns +
                       lat_.wireBytes(sizeof(LogControl)));
    else
        clock_.advance(lat_.nvm_read_ns);
    ctx.lpn = ctl.lpn;
    ctx.opn = ctl.opn;
    ctx.memlog_head = ctl.memlog_head;
    ctx.oplog_head = ctl.oplog_head;
    return Status::Ok;
}

void
FrontendSession::disconnect(BackendNode *backend)
{
    auto it = backends_.find(backend->id());
    if (it == backends_.end())
        return;
    backend->unregisterFrontend(it->second.slot);
    verbs_.detach(backend->id());
    backends_.erase(it);
}

FrontendSession::BackendCtx *
FrontendSession::ctx(NodeId id)
{
    auto it = backends_.find(id);
    return it == backends_.end() ? nullptr : &it->second;
}

const FrontendSession::BackendCtx *
FrontendSession::ctx(NodeId id) const
{
    auto it = backends_.find(id);
    return it == backends_.end() ? nullptr : &it->second;
}

Status
FrontendSession::rpcCall(BackendCtx &c, RpcOp op,
                         std::span<const uint64_t> args,
                         std::span<const uint8_t> payload, uint64_t rets[4])
{
    if (cfg_.symmetric) {
        // Local back-end: a function call, not a network round trip.
        clock_.advance(lat_.cpu_op_overhead_ns + lat_.persist_fence_ns);
        switch (op) {
          case RpcOp::AllocBlocks:
            return c.node->rpcAllocBlocks(args[0], &rets[0]);
          case RpcOp::FreeBlocks:
            return c.node->rpcFreeBlocks(args[0], args[1]);
          case RpcOp::CreateName: {
            DsId id = 0;
            const Status st = c.node->rpcCreateName(
                args[0], static_cast<DsType>(args[1]), &id);
            if (rets != nullptr)
                rets[0] = id;
            return st;
          }
          case RpcOp::LookupName: {
            DsId id = 0;
            DsType type = DsType::None;
            const Status st = c.node->rpcLookupName(args[0], &id, &type);
            if (rets != nullptr) {
                rets[0] = id;
                rets[1] = static_cast<uint64_t>(type);
            }
            return st;
          }
          case RpcOp::Retire: {
            std::vector<std::pair<uint64_t, uint64_t>> regions(args[1]);
            for (uint64_t i = 0; i < args[1]; ++i) {
                std::memcpy(&regions[i].first, payload.data() + i * 16, 8);
                std::memcpy(&regions[i].second,
                            payload.data() + i * 16 + 8, 8);
            }
            return c.node->rpcRetire(static_cast<DsId>(args[0]), regions,
                                     clock_.now());
          }
          case RpcOp::None:
            break;
        }
        return Status::InvalidArgument;
    }
    // The RPC channel is exactly-once under transient faults (seq-based
    // dedup), and a failover rebuilds c.rpc against the replacement, so
    // the re-run goes through the fresh channel.
    const NodeId id = c.node->id();
    return guarded(id, [&] { return c.rpc->call(op, args, payload, rets); });
}

// ---------------------------------------------------------------------
// Read path: overlay -> pin -> cache -> remote. Serial reads and reactor
// windows run the same stages (tier lookup, speculation filter, miss
// fill); only the wire step differs (one read vs. one shared round).
// ---------------------------------------------------------------------

bool
FrontendSession::overlayLookup(RemotePtr addr, void *dst,
                               uint32_t len) const
{
    auto it = overlay_.find(addr.raw());
    if (it == overlay_.end() || it->second.size() != len)
        return false;
    std::memcpy(dst, it->second.data(), len);
    return true;
}

void
FrontendSession::overlayInsert(RemotePtr addr, const void *value,
                               uint32_t len)
{
    auto &slot = overlay_[addr.raw()];
    slot.assign(static_cast<const uint8_t *>(value),
                static_cast<const uint8_t *>(value) + len);
}

Status
FrontendSession::symmetricRead(RemotePtr addr, void *dst, uint32_t len)
{
    BackendCtx *c = ctx(addr.backend);
    if (c == nullptr)
        return Status::Unavailable;
    c->node->nvm().read(addr.offset, dst, len);
    clock_.advance(lat_.nvm_read_ns);
    return Status::Ok;
}

Status
FrontendSession::read(RemotePtr addr, void *dst, uint32_t len,
                      const ReadHint &hint)
{
    // Reads are idempotent, so the whole lookup path (overlay, pins,
    // cache, remote) can transparently re-run after a failover heals the
    // back-end under it. Each run is a fresh read: it tracks, trains the
    // prefetcher and takes the admission decision again.
    const uint64_t t0 = clock_.now();
    bool remote = false;
    const Status st = guarded(addr.backend, [&] {
        ReadAwaitable aw{this, addr, dst, len, hint};
        if (readLocalTiers(aw))
            return aw.result;
        remote = true;
        const Status rst = remoteReadWithPrefetch(aw);
        if (ok(rst))
            fillAfterMiss(aw);
        return rst;
    });
    (remote ? hist_read_remote_ : hist_read_local_)
        .record(clock_.now() - t0);
    return st;
}

bool
FrontendSession::readLocalTiers(ReadAwaitable &aw)
{
    // Only a read's first lookup tracks it, reads symmetric NVM, trains
    // the prefetcher and takes the admission decision; a parked read
    // looked up again (a sibling wrote its address) consults the tiers
    // but decides nothing twice.
    const bool first = !aw.looked_up;
    aw.looked_up = true;
    if (first && tracking_)
        tracked_reads_.push_back(aw.addr);

    // 1. Read-your-writes: buffered memory logs shadow remote state.
    if (!overlay_.empty() && overlayLookup(aw.addr, aw.dst, aw.len)) {
        clock_.advance(lat_.dram_access_ns);
        aw.result = Status::Ok;
        return true;
    }
    // 2. Batch-local pins (vector operations reread shared path nodes).
    if (aw.hint.pin && !pinned_.empty()) {
        auto it = pinned_.find(aw.addr.raw());
        if (it != pinned_.end() && it->second.size() == aw.len) {
            std::memcpy(aw.dst, it->second.data(), aw.len);
            clock_.advance(lat_.dram_access_ns);
            aw.result = Status::Ok;
            return true;
        }
    }
    if (first) {
        if (cfg_.symmetric) {
            aw.result = symmetricRead(aw.addr, aw.dst, aw.len);
            return true;
        }
        aw.cacheable = cfg_.use_cache && aw.hint.cacheable;
        if (cfg_.read_prefetch && aw.cacheable && aw.hint.stream != 0)
            prefetch_.onAccess(aw.hint.ds, aw.hint.stream, aw.addr.raw(),
                               aw.len);
        aw.admitted = aw.hint.admission == nullptr ||
                      aw.hint.admission->admit(aw.hint.level);
    }
    // 3. Front-end DRAM cache.
    if (aw.cacheable && cache_->lookup(aw.addr, aw.dst, aw.len)) {
        if (aw.hint.admission != nullptr && aw.admitted)
            aw.hint.admission->record(true);
        aw.result = Status::Ok;
        return true;
    }
    return false;
}

void
FrontendSession::collectSpeculation(
    const ReadAwaitable &aw, std::span<ReadAwaitable *const> demanded)
{
    if (!cfg_.read_prefetch || !aw.cacheable ||
        (aw.hint.neighbors.empty() && aw.hint.stream == 0))
        return;
    prefetch_scratch_.assign(aw.hint.neighbors.begin(),
                             aw.hint.neighbors.end());
    prefetch_.collect(aw.hint.ds, aw.hint.stream, aw.addr.raw(),
                      &prefetch_scratch_);

    // Keep only candidates worth the wire bytes: drop other back-ends,
    // the demanded addresses (the demanded reads are the best prefetch),
    // duplicates, and anything already resident (overlay or cache);
    // truncate to kPrefetchDegree per demanded read.
    uint32_t kept = 0;
    for (const PrefetchCandidate &c : prefetch_scratch_) {
        if (kept >= kPrefetchDegree)
            break;
        if (c.addr_raw == 0 || c.len == 0)
            continue;
        const RemotePtr p = RemotePtr::fromRaw(c.addr_raw);
        if (p.isNull() || p.backend != aw.addr.backend)
            continue;
        const bool dup =
            std::any_of(demanded.begin(), demanded.end(),
                        [&](const ReadAwaitable *d) {
                            return d->addr.raw() == c.addr_raw;
                        }) ||
            std::any_of(spec_reads_.begin(), spec_reads_.end(),
                        [&](const SpecRead &sp) {
                            return sp.addr_raw == c.addr_raw;
                        });
        if (dup || (!overlay_.empty() && overlay_.count(c.addr_raw) != 0))
            continue;
        if (cache_->contains(p, c.len))
            continue;
        spec_reads_.push_back({c.addr_raw, c.len, aw.hint.ds});
        ++kept;
    }
}

void
FrontendSession::admitSpeculation(uint64_t issue_epoch)
{
    if (spec_reads_.empty())
        return;
    ++prefetch_batches_;
    prefetch_issued_ += spec_reads_.size();
    for (size_t i = 0; i < spec_reads_.size(); ++i) {
        const SpecRead &sp = spec_reads_[i];
        const RemotePtr p = RemotePtr::fromRaw(sp.addr_raw);
        cache_->insertSpeculative(sp.ds, p, prefetch_bufs_[i].data(), sp.len,
                                  issue_epoch);
        // Speculative bytes are subject to the same seqlock-conflict
        // invalidation as the demanded read.
        if (tracking_)
            tracked_reads_.push_back(p);
    }
}

void
FrontendSession::fillAfterMiss(const ReadAwaitable &aw)
{
    if (aw.cacheable && aw.admitted) {
        // Only admitted levels feed the miss-ratio window; reads the
        // threshold excludes by design must not drag N further down.
        if (aw.hint.admission != nullptr)
            aw.hint.admission->record(false);
        cache_->insert(aw.hint.ds, aw.addr, aw.dst, aw.len);
    }
    if (aw.hint.pin) {
        auto &slot = pinned_[aw.addr.raw()];
        slot.assign(static_cast<uint8_t *>(aw.dst),
                    static_cast<uint8_t *>(aw.dst) + aw.len);
    }
}

Status
FrontendSession::remoteReadWithPrefetch(ReadAwaitable &aw)
{
    ReadAwaitable *const demanded = &aw;
    spec_reads_.clear();
    collectSpeculation(aw, std::span(&demanded, 1));
    if (spec_reads_.empty())
        return verbs_.read(aw.addr, aw.dst, aw.len);

    if (prefetch_bufs_.size() < spec_reads_.size())
        prefetch_bufs_.resize(spec_reads_.size());
    // Epoch snapshot BEFORE the gather: an invalidateDs that lands while
    // the chain is in flight must outrank the fetched bytes.
    const uint64_t issue_epoch = cache_->epochNow();
    verbs_.postRead(aw.addr, aw.dst, aw.len);
    for (size_t i = 0; i < spec_reads_.size(); ++i) {
        prefetch_bufs_[i].resize(spec_reads_[i].len);
        verbs_.postRead(RemotePtr::fromRaw(spec_reads_[i].addr_raw),
                        prefetch_bufs_[i].data(), spec_reads_[i].len);
    }
    const Status st = verbs_.readGather();
    if (st == Status::InvalidArgument) {
        // A learned candidate fell outside the target (stale prediction
        // over reclaimed NVM): forget the structure's predictions and
        // serve the demanded read alone.
        prefetch_.invalidateDs(aw.hint.ds);
        return verbs_.read(aw.addr, aw.dst, aw.len);
    }
    if (!ok(st))
        return st;
    admitSpeculation(issue_epoch);
    return Status::Ok;
}

// ---------------------------------------------------------------------
// Pipelined operations: coroutine reactor over the read-gather verbs
// ---------------------------------------------------------------------

bool
FrontendSession::ReadAwaitable::await_ready()
{
    if (!s->pipeline_active_) {
        // No reactor owns the session (or depth 1): degrade to the
        // serial read path — same verbs, same clock charges, same
        // histograms. Depth-1 pipelined runs are bit-identical to
        // serial ones by this fall-through.
        result = s->read(addr, dst, len, hint);
        served_seq = s->pipe_write_seq_; // 0 outside a window
        return true;
    }
    served_seq = s->pipe_write_seq_; // service happens now (or at park)
    // A remote miss parks with the reactor and suspends.
    return s->windowReadLocal(*this);
}

void
FrontendSession::ReadAwaitable::await_suspend(std::coroutine_handle<>)
{
    // The awaitable lives in the coroutine frame, which stays alive
    // until the reactor resumes the op past this co_await — so parking
    // a raw pointer is safe.
    s->pending_reads_.push_back(this);
}

bool
FrontendSession::windowReadLocal(ReadAwaitable &aw)
{
    const uint64_t t0 = clock_.now();
    if (!readLocalTiers(aw))
        return false;
    hist_read_local_.record(clock_.now() - t0);
    return true;
}

void
FrontendSession::pipelineRefreshIfStale(ReadAwaitable &aw)
{
    if (!ok(aw.result))
        return;
    const auto it = pipe_dirty_.find(aw.addr.raw());
    if (it == pipe_dirty_.end() || it->second <= aw.served_seq)
        return;
    if (windowReadLocal(aw))
        aw.served_seq = pipe_write_seq_;
}

void
FrontendSession::serveBatchRound()
{
    if (pending_reads_.empty())
        return;
    std::vector<ReadAwaitable *> round = std::move(pending_reads_);
    pending_reads_.clear();
    // A sibling op's window write may have landed at a parked read's
    // address after it suspended: such reads look the local tiers up
    // again (overlay now holds the fresh bytes — read-your-writes)
    // instead of fetching a stale remote image. Reads at clean addresses
    // skip the lookup entirely, so write-free (read-only) rounds are
    // untouched.
    std::vector<ReadAwaitable *> remote;
    remote.reserve(round.size());
    for (ReadAwaitable *aw : round) {
        aw->served_seq = pipe_write_seq_; // service time is now
        if (pipe_dirty_.count(aw->addr.raw()) != 0 && windowReadLocal(*aw))
            continue;
        remote.push_back(aw);
    }
    if (remote.empty())
        return; // everything was served locally: not a gather round
    round = std::move(remote);
    ++pipe_rounds_;
    if (round.size() <= 1)
        ++pipe_solo_rounds_; // nothing to overlap with: a pipeline stall
    pipe_batched_reads_ += round.size();
    const uint64_t t0 = clock_.now();

    // Dedupe demanded addresses across ops: the first op fetches, the
    // rest copy its bytes (two lookups of one hot node share the wire).
    std::vector<ReadAwaitable *> primaries;
    primaries.reserve(round.size());
    std::vector<std::pair<ReadAwaitable *, ReadAwaitable *>> copies;
    for (ReadAwaitable *aw : round) {
        ReadAwaitable *prim = nullptr;
        for (ReadAwaitable *p : primaries) {
            if (p->addr.raw() == aw->addr.raw() && p->len == aw->len) {
                prim = p;
                break;
            }
        }
        if (prim != nullptr)
            copies.emplace_back(aw, prim);
        else
            primaries.push_back(aw);
    }

    // Speculative neighbors per op, excluding every demanded address of
    // the round — the round itself is the best prefetch.
    spec_reads_.clear();
    for (const ReadAwaitable *aw : primaries)
        collectSpeculation(*aw, primaries);

    // Epoch snapshot BEFORE the gather: an invalidateDs landing while
    // the chain is in flight outranks the fetched bytes (the same
    // guard the serial prefetch uses — it is what keeps interleaved
    // ops' cache fills coherent).
    const uint64_t issue_epoch = cache_->epochNow();
    std::vector<ReadAwaitable *> posted;
    posted.reserve(primaries.size());
    for (ReadAwaitable *aw : primaries) {
        const Status pst = verbs_.postRead(aw->addr, aw->dst, aw->len);
        if (ok(pst))
            posted.push_back(aw);
        else
            aw->result = pst;
    }
    if (prefetch_bufs_.size() < spec_reads_.size())
        prefetch_bufs_.resize(spec_reads_.size());
    size_t nspec = 0;
    for (const SpecRead &sp : spec_reads_) {
        prefetch_bufs_[nspec].resize(sp.len);
        if (ok(verbs_.postRead(RemotePtr::fromRaw(sp.addr_raw),
                               prefetch_bufs_[nspec].data(), sp.len)))
            spec_reads_[nspec++] = sp;
    }
    spec_reads_.resize(nspec);
    verbs_.tagGatherOps(posted.size());
    Status st = verbs_.readGather();
    if (st == Status::InvalidArgument && !spec_reads_.empty()) {
        // A learned candidate fell outside the target (stale prediction
        // over reclaimed NVM): forget those predictions and re-run the
        // round with the demanded reads alone.
        for (const SpecRead &sp : spec_reads_)
            prefetch_.invalidateDs(sp.ds);
        spec_reads_.clear();
        for (ReadAwaitable *aw : posted)
            verbs_.postRead(aw->addr, aw->dst, aw->len);
        verbs_.tagGatherOps(posted.size());
        st = verbs_.readGather();
    }
    if (!ok(st)) {
        // All-or-nothing chain failed on the demanded set itself (torn
        // pointer out of bounds, back-end crash): serve each demanded
        // read individually so only the broken op fails — exactly the
        // status its serial traversal would have seen.
        for (ReadAwaitable *aw : posted)
            aw->result = verbs_.read(aw->addr, aw->dst, aw->len);
    } else {
        for (ReadAwaitable *aw : posted)
            aw->result = Status::Ok;
        admitSpeculation(issue_epoch);
    }
    for (auto &[dup, prim] : copies) {
        dup->result = prim->result;
        if (ok(prim->result)) {
            std::memcpy(dup->dst, prim->dst, dup->len);
            clock_.advance(lat_.dram_access_ns);
        }
    }
    for (ReadAwaitable *aw : round) {
        if (!ok(aw->result))
            continue;
        fillAfterMiss(*aw);
        hist_read_remote_.record(clock_.now() - t0);
    }
}

void
FrontendSession::executePipelined(std::span<OpTask> ops,
                                  std::span<Status> results)
{
    assert(results.size() >= ops.size());
    const uint32_t depth = std::max<uint32_t>(1, cfg_.pipeline_depth);
    if (depth <= 1 || ops.size() <= 1 || pipeline_active_) {
        // Serial baseline: with no reactor active, asyncRead never
        // suspends, so one resume() drives each op to completion through
        // the unchanged read/commit paths. Under a re-entrant call (an
        // outer reactor already owns scheduling) an op CAN suspend on a
        // parked read — drive it through service rounds until done; the
        // outer window's single drain flush still fences everything, so
        // no extra commit is charged here.
        for (size_t i = 0; i < ops.size(); ++i) {
            ops[i].resume();
            while (!ops[i].done()) {
                serveBatchRound();
                ops[i].resume();
            }
            results[i] = ops[i].status();
        }
        return;
    }
    pipeline_active_ = true;
    ++pipe_runs_;
    std::vector<size_t> window; // in-flight (suspended) op indices
    window.reserve(depth);
    size_t next = 0;
    // Drive one op to its next suspension point; false once it is done.
    auto pump = [&](size_t i) {
        ops[i].resume();
        if (ops[i].done()) {
            results[i] = ops[i].status();
            ++pipe_ops_;
            return false;
        }
        return true;
    };
    auto admit = [&] {
        while (window.size() < depth && next < ops.size()) {
            const size_t i = next++;
            if (pump(i))
                window.push_back(i);
        }
    };
    admit();
    while (!window.empty()) {
        pipe_max_in_flight_ =
            std::max<uint64_t>(pipe_max_in_flight_, window.size());
        // Every in-flight op is parked on exactly one demanded read:
        // serve them all as one gather wave, then resume each op, which
        // either finishes, re-parks at its next hop, or frees a window
        // slot for the next admission.
        serveBatchRound();
        for (size_t w = 0; w < window.size();) {
            if (pump(window[w]))
                ++w;
            else
                window.erase(window.begin() + w);
        }
        admit();
    }
    pipeline_active_ = false;
    // Window-scoped conflict state dies with the window: gates were
    // released at each op's co_return (these clears are insurance for
    // ops destroyed mid-flight), and the dirty map only orders reads
    // against writes *within* one window.
    pipe_gates_.clear();
    pipe_dirty_.clear();
    pipe_write_seq_ = 0;
    if (pipeline_commit_deferred_) {
        // In-flight ops' batch boundaries were coalesced: one group
        // commit fences every posted op-log/memlog chain at window
        // drain (composing with — not fighting — doorbell batching).
        pipeline_commit_deferred_ = false;
        ++pipe_deferred_commits_;
        (void)flushAll();
    }
}

// ---------------------------------------------------------------------
// Write-pipelining window primitives (gates, op-ref capture)
// ---------------------------------------------------------------------

bool
FrontendSession::WindowGate::tryAcquire()
{
    if (ticket_ != 0)
        return true; // already holding the key
    if (!s_->pipeline_active_)
        return true; // serial: no sibling ops can exist
    auto it = s_->pipe_gates_.find(key_);
    if (it == s_->pipe_gates_.end()) {
        ticket_ = ++s_->pipe_ticket_;
        s_->pipe_gates_.emplace(key_, ticket_);
        return true;
    }
    if (!stalled_) {
        // One dependency stall per wait episode, however many service
        // rounds the waiter sleeps through.
        stalled_ = true;
        ++s_->pipe_dep_stalls_;
    }
    return false;
}

void
FrontendSession::WindowGate::release()
{
    if (ticket_ == 0)
        return;
    auto it = s_->pipe_gates_.find(key_);
    if (it != s_->pipe_gates_.end() && it->second == ticket_)
        s_->pipe_gates_.erase(it);
    ticket_ = 0;
    stalled_ = false;
}

FrontendSession::OpRef
FrontendSession::currentOpRef(NodeId backend) const
{
    const BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return OpRef{};
    return OpRef{c->last_oplog_pos, c->last_oplog_len};
}

void
FrontendSession::restoreOpRef(NodeId backend, const OpRef &ref)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return;
    // Serially this is a no-op (nothing ran since opBegin); inside a
    // window it re-points op-ref encoding at THIS op's record after
    // sibling opBegins moved the shadows during the suspendable phase.
    c->last_oplog_pos = ref.pos;
    c->last_oplog_len = ref.len;
}

// ---------------------------------------------------------------------
// Write path (apply): op log -> memory logs -> group commit
// ---------------------------------------------------------------------

Status
FrontendSession::symmetricWrite(RemotePtr addr, const void *value,
                                uint32_t len)
{
    BackendCtx *c = ctx(addr.backend);
    if (c == nullptr)
        return Status::Unavailable;
    c->node->nvm().write(addr.offset, value, len);
    c->node->nvm().persist();
    // Local persistence is paid per cache line: every 64B of a node
    // must be written back (clwb) to the DIMM individually.
    clock_.advance(lat_.nvm_write_ns * ((len + 63) / 64));
    // Ship the log record for this write to the remote mirror through
    // the same posted-WQE chain the asymmetric commit uses: consecutive
    // ring positions merge into one wire write, and the doorbell (plus
    // remote persist fence) is paid at the shipping point — per op
    // without batching, per group with Symmetric-B (see opEnd/flushAll).
    const uint64_t pos = sym_log_head_ % kSymLogRingSize;
    const uint64_t room = kSymLogRingSize - pos;
    const RemotePtr dst(kSymReplicaId, len <= room ? pos : 0);
    verbs_.postWrite(dst, value, len);
    sym_log_head_ = (len <= room ? sym_log_head_ : sym_log_head_ + room) +
                    len;
    return Status::Ok;
}

Status
FrontendSession::logWrite(DsId ds, RemotePtr addr, const void *value,
                          uint32_t len)
{
    return logWriteInternal(ds, addr, value, len, /*op_ref=*/false, 0);
}

Status
FrontendSession::logWriteFromOp(DsId ds, RemotePtr addr,
                                const void *value, uint32_t len,
                                uint32_t val_off)
{
    BackendCtx *c = ctx(addr.backend);
    const bool can_ref = cfg_.use_opref && cfg_.use_oplog &&
                         cfg_.use_txlog && !cfg_.symmetric &&
                         c != nullptr &&
                         val_off + len <= c->last_oplog_len;
    return logWriteInternal(ds, addr, value, len, can_ref, val_off);
}

Status
FrontendSession::logWriteInternal(DsId ds, RemotePtr addr,
                                  const void *value, uint32_t len,
                                  bool op_ref, uint32_t val_off)
{
    if (pipeline_active_) {
        // Window write: stamp the address so sibling descents that read
        // it earlier fail read-set validation (and parked reads re-check
        // the local tiers instead of fetching a stale remote image).
        // Bookkeeping only — no clock charge, no wire traffic.
        pipe_dirty_[addr.raw()] = ++pipe_write_seq_;
    }
    if (cfg_.symmetric)
        return symmetricWrite(addr, value, len);
    if (!cfg_.use_txlog) {
        // Naive: a synchronous RDMA_Write per modification (idempotent
        // payload, so a healed back-end can transparently take a rerun).
        return guarded(addr.backend,
                       [&] { return verbs_.write(addr, value, len); });
    }
    BackendCtx *c = ctx(addr.backend);
    if (c == nullptr)
        return Status::Unavailable;

    overlayInsert(addr, value, len);
    if (cfg_.use_cache)
        cache_->update(addr, value, len);
    clock_.advance(lat_.dram_access_ns); // build the log entry in DRAM

    auto &group = c->groups[ds];
    const uint64_t raw = addr.raw();
    auto idx = cfg_.coalesce_memlogs ? group.index.find(raw)
                                     : group.index.end();
    if (idx != group.index.end() && group.logs[idx->second].len == len) {
        // Coalesce: a later write to the same address supersedes the
        // earlier memory log ("compacted to one NVM write", Section 8.3).
        // Same length, so the value overwrites its arena slot in place.
        BackendCtx::GroupEntry &e = group.logs[idx->second];
        const uint64_t old_cost = e.op_ref ? 16 : e.len;
        std::memcpy(group.arena.data() + e.arena_off, value, len);
        e.op_ref = op_ref;
        e.oplog_pos = c->last_oplog_pos;
        e.val_off = val_off;
        // Coalescing can flip the entry between op-ref (16 B on the wire)
        // and inline (len B); track it or the spill threshold drifts.
        group.bytes = group.bytes - old_cost + (op_ref ? 16 : len);
    } else {
        group.index[raw] = group.logs.size();
        BackendCtx::GroupEntry e;
        e.addr = addr;
        e.arena_off = static_cast<uint32_t>(group.arena.size());
        e.len = len;
        e.op_ref = op_ref;
        e.oplog_pos = c->last_oplog_pos;
        e.val_off = val_off;
        group.arena.insert(group.arena.end(),
                           static_cast<const uint8_t *>(value),
                           static_cast<const uint8_t *>(value) + len);
        group.logs.push_back(e);
        group.bytes += (op_ref ? 16 : len) + sizeof(MemLogEntryHeader);
    }
    if (group.bytes >= cfg_.memlog_buffer_cap) {
        // Buffer full: spill the memory logs (not a commit point).
        return flushGroup(*c, ds, false);
    }
    return Status::Ok;
}

Status
FrontendSession::opBegin(DsId ds, NodeId backend, OpType op, Key key,
                         const void *value, uint32_t val_len)
{
    ++ops_started_;
    in_op_ = false; // a previous op may have aborted without opEnd
    clock_.advance(lat_.cpu_op_overhead_ns);
    if (cfg_.symmetric || !cfg_.use_oplog) {
        in_op_ = true;
        return Status::Ok;
    }
    // Re-resolve the context on every attempt: a failover in between
    // refreshes the log-position shadows (and the OPN) from the
    // replacement's control block. A first attempt that died mid-write
    // left at most a torn record, which recovery's decode skips.
    const Status st = guarded(backend, [&]() -> Status {
        BackendCtx *c = ctx(backend);
        if (c == nullptr)
            return Status::Unavailable;
        const auto rec = encodeOpLog(cfg_.log_format, op, ds, c->opn, key,
                                     value, val_len);
        // Per-op persistence (batch == 1) makes the op log the write's
        // durability point: one synchronous RDMA_Write (Section 4.3).
        // Inside a batch — or inside an active pipeline window, whose
        // drain flush is the fence — op logs are posted and ride the
        // doorbell chain.
        const bool sync = cfg_.batch_size <= 1 && !pipeline_active_;
        const Status ast = appendOpLogRecord(*c, rec, sync);
        if (!ok(ast))
            return ast;
        if (!sync && pipeline_active_) {
            pipeline_posted_ops_ = true;
            ++pipe_batched_appends_; // rode the WQE chain, not a fence
        }
        logfmt_.op_records += 1;
        logfmt_.op_wire_bytes += rec.size();
        logfmt_.op_payload_bytes += val_len;
        c->last_oplog_len = val_len;
        c->opn += 1;
        return Status::Ok;
    });
    if (ok(st))
        in_op_ = true;
    return st;
}

Status
FrontendSession::appendOpLogRecord(BackendCtx &c,
                                   const std::vector<uint8_t> &rec,
                                   bool sync)
{
    const Layout &lay = c.node->layout();
    const uint64_t ring = lay.super.oplog_ring_size;
    const uint64_t base = lay.oplogRingOff(c.slot);
    const uint64_t pos = ringReserve(&c.oplog_head, ring, base,
                                     c.node->id(), rec.size(), sync);
    c.last_oplog_pos = pos;
    const RemotePtr dst(c.node->id(), base + pos % ring);
    // Batched appends join the doorbell chain, where consecutive ring
    // positions merge into one RDMA_Write; the group commit's synchronous
    // transaction write is the fence that launches and covers them.
    const Status st = sync ? verbs_.write(dst, rec.data(), rec.size())
                           : verbs_.postWrite(dst, rec.data(), rec.size());
    if (!ok(st))
        return st;
    return c.node->onOpLogAppended(c.slot, pos,
                                   static_cast<uint32_t>(rec.size()),
                                   clock_.now(), /*fenced=*/sync);
}

uint64_t
FrontendSession::ringReserve(uint64_t *head, uint64_t ring_size,
                             uint64_t ring_base, NodeId backend, size_t len,
                             bool sync)
{
    assert(len <= ring_size);
    const uint64_t off = *head % ring_size;
    if (off + len > ring_size) {
        // Pad the lap tail so recovery scans cannot misparse stale bytes:
        // a skip marker when one fits, zeroes for a sub-4-byte remainder.
        // The pad must reach NVM no later than the record written past it,
        // so it follows the caller's synchrony.
        const uint64_t tail = ring_size - off;
        const RemotePtr dst(backend, ring_base + off);
        if (tail >= sizeof(uint32_t)) {
            const uint32_t skip = kSkipMagic;
            if (sync)
                verbs_.write(dst, &skip, sizeof(skip));
            else
                verbs_.postWrite(dst, &skip, sizeof(skip));
        } else if (tail > 0) {
            const uint8_t zeros[4] = {0, 0, 0, 0};
            if (sync)
                verbs_.write(dst, zeros, tail);
            else
                verbs_.postWrite(dst, zeros, tail);
        }
        *head = (*head / ring_size + 1) * ring_size;
    }
    const uint64_t pos = *head;
    *head += len;
    return pos;
}

Status
FrontendSession::opEnd()
{
    in_op_ = false; // batch flush below happens at a safe boundary
    ++ops_in_batch_;
    if (cfg_.symmetric) {
        if (!cfg_.symmetric_batch) {
            // Ship this op's logs now: launch the posted chain with one
            // doorbell and fence it at the replica (remote persist).
            const uint64_t t0 = clock_.now();
            verbs_.ringDoorbell();
            clock_.advance(lat_.persist_fence_ns);
            hist_commit_.record(clock_.now() - t0);
            ops_in_batch_ = 0;
            return Status::Ok;
        }
        if (ops_in_batch_ >= cfg_.batch_size)
            return flushAll();
        return Status::Ok;
    }
    if (ops_in_batch_ >= cfg_.batch_size) {
        if (pipeline_active_) {
            // Other in-flight ops are suspended mid-traversal: defer the
            // group commit to the window drain, where ONE flush fences
            // every pipelined op's posted chain together.
            pipeline_commit_deferred_ = true;
            ++pipe_coalesced_fences_; // this op's fence moved to drain
            processLocalRetired();
            return Status::Ok;
        }
        return flushAll();
    }
    processLocalRetired();
    return Status::Ok;
}

void
FrontendSession::processLocalRetired()
{
    while (!local_retired_.empty() &&
           local_retired_.front().free_at_ns <= clock_.now()) {
        const auto item = local_retired_.front();
        local_retired_.pop_front();
        free(item.ptr, item.size);
    }
}

Status
FrontendSession::flushGroup(BackendCtx &c, DsId ds, bool sync_commit)
{
    auto git = c.groups.find(ds);
    if (git == c.groups.end() || git->second.logs.empty()) {
        c.groups.erase(ds);
        return Status::Ok;
    }
    const uint64_t covered =
        git->second.covered_opn.value_or(c.opn);
    const uint64_t oplog_ring = c.node->layout().super.oplog_ring_size;
    TxBuilder builder(cfg_.log_format);
    builder.reset(c.lpn, ds, covered);
    uint64_t payload_bytes = 0;
    for (const auto &e : git->second.logs) {
        payload_bytes += e.len;
        // An op-ref is only valid while the referenced record is still
        // in the ring (always true for sane batch/ring ratios).
        const bool ref_ok =
            e.op_ref && c.oplog_head - e.oplog_pos < oplog_ring;
        if (ref_ok) {
            builder.addOpRef(e.addr, e.oplog_pos, e.val_off, e.len);
        } else {
            builder.addInline(e.addr,
                              git->second.arena.data() + e.arena_off,
                              e.len);
        }
    }
    const auto tx = builder.finish();
    clock_.advance(lat_.cpu_op_overhead_ns); // serialize in DRAM

    const Layout &lay = c.node->layout();
    const uint64_t ring = lay.super.memlog_ring_size;
    const uint64_t base = lay.memlogRingOff(c.slot);
    const uint64_t pos = ringReserve(&c.memlog_head, ring, base,
                                     c.node->id(), tx.size(), sync_commit);
    const RemotePtr dst(c.node->id(), base + pos % ring);
    // Non-commit transaction writes ride the doorbell chain with the op
    // logs; the synchronous commit write drains the chain first (queue-
    // pair ordering), making it the whole batch's persistence point.
    const Status st =
        sync_commit ? verbs_.write(dst, tx.data(), tx.size())
                    : verbs_.postWrite(dst, tx.data(), tx.size());
    c.groups.erase(git);
    if (!ok(st))
        return st;
    const Status bst = c.node->onTxAppended(
        c.slot, pos, static_cast<uint32_t>(tx.size()), clock_.now());
    if (!ok(bst))
        return bst;
    c.lpn += 1;
    ++tx_flushes_;
    logfmt_.tx_records += 1;
    logfmt_.tx_wire_bytes += tx.size();
    logfmt_.tx_payload_bytes += payload_bytes;
    return Status::Ok;
}

void
FrontendSession::setFlushHook(DsId ds, NodeId backend,
                              std::function<void()> fn)
{
    flush_hooks_[{backend, ds}] = std::move(fn);
}

void
FrontendSession::setPostFlushHook(DsId ds, NodeId backend,
                                  std::function<void()> fn)
{
    post_flush_hooks_[{backend, ds}] = std::move(fn);
}

void
FrontendSession::setGroupCoverage(DsId ds, NodeId backend,
                                  uint64_t covered_opn)
{
    BackendCtx *c = ctx(backend);
    if (c != nullptr)
        c->groups[ds].covered_opn = covered_opn;
}

uint64_t
FrontendSession::currentOpn(NodeId backend) const
{
    const BackendCtx *c = ctx(backend);
    return c == nullptr ? 0 : c->opn;
}

Status
FrontendSession::flushAll()
{
    const Status st = flushAllInner();
    if (!needsFailover(st) || resolver_ == nullptr || in_failover_)
        return st;
    // The commit write died with the back-end. Heal — and that is all:
    // every op of the interrupted batch persisted (and replicated) its
    // operation log before being acked, so the replacement's recovery
    // re-executed and re-flushed the whole batch during failover.
    if (!ok(handleBackendFailure(last_failed_node_)))
        return st;
    return Status::Ok;
}

Status
FrontendSession::flushAllInner()
{
    if (in_flush_)
        return Status::Ok;
    in_flush_ = true;
    // Materialize deferred operations (stack/queue annulment survivors)
    // before serializing the batch's memory logs.
    for (auto &[ds, fn] : flush_hooks_)
        fn();
    in_flush_ = false;
    if (cfg_.symmetric) {
        // Ship the accumulated log chain to the remote replica: one
        // doorbell launches every posted log write (Symmetric-B ships the
        // whole batch; per-op mode shipped at each opEnd) and one remote
        // persist fences it — the same wire mechanics as the asymmetric
        // group commit, so Table 3 compares like for like.
        const uint64_t t0 = clock_.now();
        verbs_.ringDoorbell();
        clock_.advance(lat_.persist_fence_ns);
        hist_commit_.record(clock_.now() - t0);
        ops_in_batch_ = 0;
        held_locks_.clear();
        return Status::Ok;
    }
    const uint64_t commit_t0 = clock_.now();
    Status result = Status::Ok;
    // The final transaction write is the batch's commit point when op
    // logs were posted asynchronously inside the batch — including op
    // logs a pipelined window posted at nominal batch_size 1, whose
    // durability point moved here (the drain flush).
    const bool need_sync =
        cfg_.use_txlog && (cfg_.batch_size > 1 || !cfg_.use_oplog ||
                           pipeline_posted_ops_);
    pipeline_posted_ops_ = false;
    // Collect the flush plan first so we know which write is last.
    // backends_ is an ordered map, so the plan is grouped by back-end.
    std::vector<std::pair<BackendCtx *, DsId>> plan;
    for (auto &[id, c] : backends_) {
        for (auto &[ds, group] : c.groups) {
            if (!group.logs.empty())
                plan.emplace_back(&c, ds);
        }
    }
    size_t nbackends = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (i == 0 || plan[i].first != plan[i - 1].first)
            ++nbackends;
    }
    // A commit spanning several back-ends overlaps its round trips: every
    // group is posted (no per-back-end fence), all doorbells ring, and
    // ringDoorbellFanout awaits the slowest completion. The serial
    // baseline (parallel_fanout off) instead issues each back-end's
    // commit write synchronously — k fences back to back. A single-back-
    // end commit keeps the one-sync-write path untouched.
    const bool fanout =
        need_sync && nbackends > 1 && cfg_.parallel_fanout;
    for (size_t i = 0; i < plan.size(); ++i) {
        const bool last_of_backend =
            i + 1 == plan.size() || plan[i + 1].first != plan[i].first;
        bool sync;
        if (fanout)
            sync = false;
        else if (nbackends > 1)
            sync = need_sync && last_of_backend;
        else
            sync = need_sync && i + 1 == plan.size();
        const Status st = flushGroup(*plan[i].first, plan[i].second, sync);
        if (!ok(st)) {
            result = st;
            last_failed_node_ = plan[i].first->node->id();
        }
    }
    if (fanout && ok(result)) {
        const uint64_t t0 = clock_.now();
        verbs_.ringDoorbellFanout();
        hist_fanout_.record(clock_.now() - t0);
    }
    if (plan.empty() && need_sync && ops_in_batch_ > 0 && cfg_.use_oplog) {
        // Read-annulled batches (stack/queue) may commit with no memory
        // logs at all; the op logs still sit on the doorbell chain, so
        // launch it and fence it — overlapped across back-ends when the
        // chain spans more than one.
        if (cfg_.parallel_fanout && backends_.size() > 1) {
            verbs_.ringDoorbellFanout();
        } else {
            verbs_.ringDoorbell();
            clock_.advance(lat_.rdma_write_rtt_ns);
        }
    }

    // A failed commit must not publish roots, retire old versions, or
    // release locks: the batch is not durable, so recovery (not this
    // flush) decides its fate. Stale locks are released by the recovery
    // protocol's lock-ahead scan (Section 7).
    if (!ok(result)) {
        verbs_.dropPosted(); // the chain died with the back-end
        overlay_.clear();
        pinned_.clear();
        ops_in_batch_ = 0;
        return result;
    }

    // Publish multi-version roots now that the batch is durable.
    for (auto &[ds, fn] : post_flush_hooks_)
        fn();

    // Ship deferred MV retirements and reclaim locally-due regions.
    for (auto &[id, c] : backends_) {
        if (!c.retired.empty()) {
            std::vector<uint8_t> payload(c.retired.size() * 16);
            for (size_t i = 0; i < c.retired.size(); ++i) {
                std::memcpy(payload.data() + i * 16, &c.retired[i].first,
                            8);
                std::memcpy(payload.data() + i * 16 + 8,
                            &c.retired[i].second, 8);
            }
            uint64_t args[3] = {c.retired_ds, c.retired.size(),
                                clock_.now()};
            rpcCall(c, RpcOp::Retire, args, payload, nullptr);
            // Hand the regions to the local delayed-free queue.
            for (const auto &[off, size] : c.retired)
                local_retired_.push_back(
                    {RemotePtr(id, off), size,
                     clock_.now() + c.node->config().gc_delay_ns});
            c.retired.clear();
        }
    }
    processLocalRetired();

    overlay_.clear();
    pinned_.clear();
    ops_in_batch_ = 0;

    // Release writer locks only after the batch is durable. The three
    // release records are posted onto the doorbell chain *behind* the
    // commit write: the queue pair executes WQEs in order, so another
    // front-end can only observe the lock free after the batch's logs
    // are in NVM.
    auto locks = held_locks_;
    held_locks_.clear();
    for (const auto &[key, held] : locks) {
        if (!held)
            continue;
        const auto [backend, ds] = key;
        BackendCtx *c = ctx(backend);
        if (c == nullptr)
            continue;
        const uint64_t gen = ++writer_gen_[key];
        verbs_.postWrite(namingField(ds, backend, naming_field::kAux0 +
                                                      3 * 8),
                         &gen, sizeof(gen));
        // Release the lock word BEFORE clearing the lock-ahead record: a
        // crash between the two leaves the lock-ahead set with the lock
        // already free, which recovery's releaseStaleLocks handles. The
        // reverse order would strand a held lock with no lock-ahead
        // record to find it by. Chain order preserves exactly this.
        const uint64_t zero = 0;
        verbs_.postWrite(namingField(ds, backend,
                                     naming_field::kWriterLock),
                         &zero, sizeof(zero));
        verbs_.postWrite(
            RemotePtr(backend, c->node->layout().logControlOff(c->slot) +
                                   offsetof(LogControl, lock_ahead)),
            &zero, sizeof(zero));
    }
    // One trailing doorbell launches whatever is still chained (lock
    // releases, posted transactions of non-final groups, aux updates).
    verbs_.ringDoorbell();
    if (!plan.empty())
        hist_commit_.record(clock_.now() - commit_t0);
    return result;
}

// ---------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------

Status
FrontendSession::alloc(NodeId backend, uint64_t size, RemotePtr *out)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    clock_.advance(lat_.dram_access_ns); // free-list walk
    return c->alloc->alloc(size, out);
}

Status
FrontendSession::free(RemotePtr p, uint64_t size)
{
    BackendCtx *c = ctx(p.backend);
    if (c == nullptr)
        return Status::Unavailable;
    if (pipeline_active_) {
        // A freed node's bytes may be reused within the window: poison
        // any sibling descent that read it before the free landed.
        pipe_dirty_[p.raw()] = ++pipe_write_seq_;
    }
    clock_.advance(lat_.dram_access_ns);
    if (cfg_.use_cache)
        cache_->invalidate(p);
    return c->alloc->free(p, size);
}

void
FrontendSession::retire(DsId ds, RemotePtr p, uint64_t size)
{
    BackendCtx *c = ctx(p.backend);
    if (c == nullptr)
        return;
    c->retired.emplace_back(p.offset, size);
    c->retired_ds = ds;
}

// ---------------------------------------------------------------------
// Concurrency control
// ---------------------------------------------------------------------

RemotePtr
FrontendSession::namingField(DsId ds, NodeId backend, uint64_t field_off)
{
    BackendCtx *c = ctx(backend);
    assert(c != nullptr);
    return RemotePtr(backend, c->node->layout().namingEntryOff(ds) +
                                  field_off);
}

Status
FrontendSession::writerLock(DsId ds, NodeId backend)
{
    const auto key = std::make_pair(backend, ds);
    if (held_locks_.count(key) != 0)
        return Status::Ok;
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    if (cfg_.symmetric) {
        clock_.advance(lat_.dram_access_ns);
        held_locks_[key] = true;
        return Status::Ok;
    }
    // Acquisition is re-runnable after a failover: the replacement's
    // recovery released any lock this session's previous target recorded
    // for it, so a fresh CAS starts over cleanly.
    return guarded(backend, [&]() -> Status {
        BackendCtx *gc = ctx(backend);
        if (gc == nullptr)
            return Status::Unavailable;
        const RemotePtr lock_ptr =
            namingField(ds, backend, naming_field::kWriterLock);
        const uint64_t self = static_cast<uint64_t>(gc->slot) + 1;
        while (true) {
            uint64_t old = 0;
            const Status st =
                verbs_.compareAndSwap(lock_ptr, 0, self, &old);
            if (!ok(st))
                return st;
            if (old == 0 || old == self)
                break;
            std::this_thread::yield(); // another writer holds the lock
        }
        // Lock-ahead record: lets recovery identify and release the lock
        // if we crash while holding it (Section 6.1). Posted before any
        // logs.
        const uint64_t ahead = static_cast<uint64_t>(ds) + 1;
        verbs_.writeAsync(
            RemotePtr(backend, gc->node->layout().logControlOff(gc->slot) +
                                   offsetof(LogControl, lock_ahead)),
            &ahead, sizeof(ahead));

        // Another writer may have modified the structure since we last
        // held the lock; a changed writer generation invalidates our
        // cache.
        uint64_t gen = 0;
        const Status gst = verbs_.read64(
            namingField(ds, backend, naming_field::kAux0 + 3 * 8), &gen);
        if (!ok(gst))
            return gst;
        auto git = writer_gen_.find(key);
        if (git == writer_gen_.end() || git->second != gen) {
            if (cfg_.use_cache)
                cache_->invalidateDs(ds);
            prefetch_.invalidateDs(ds); // learned runs may be stale too
            writer_gen_[key] = gen;
        }
        held_locks_[key] = true;
        return Status::Ok;
    });
}

Status
FrontendSession::writerUnlock(DsId ds, NodeId backend)
{
    const auto key = std::make_pair(backend, ds);
    if (held_locks_.count(key) == 0)
        return Status::Ok;
    // The flush releases every held lock after the commit.
    return flushAll();
}

bool
FrontendSession::holdsWriterLock(DsId ds, NodeId backend) const
{
    return held_locks_.count(std::make_pair(backend, ds)) != 0;
}

Status
FrontendSession::readerLock(DsId ds, NodeId backend, uint64_t *sn)
{
    const RemotePtr sn_ptr = namingField(ds, backend,
                                         naming_field::kSeqNum);
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        *sn = c->node->nvm().read64(sn_ptr.offset);
        clock_.advance(lat_.nvm_read_ns);
    } else {
        while (true) {
            const Status st = guarded(
                backend, [&] { return verbs_.read64(sn_ptr, sn); });
            if (!ok(st))
                return st;
            if ((*sn & 1) == 0)
                break;
            std::this_thread::yield(); // replay in progress
        }
    }
    // A moved SN means the structure changed since our last critical
    // section: every cached copy of it may be stale.
    const auto key = std::make_pair(backend, ds);
    auto it = sn_seen_.find(key);
    if (it == sn_seen_.end()) {
        sn_seen_[key] = *sn;
    } else if (it->second != *sn) {
        if (cfg_.use_cache)
            cache_->invalidateDs(ds);
        prefetch_.invalidateDs(ds);
        it->second = *sn;
    }
    tracking_ = true;
    tracked_reads_.clear();
    return Status::Ok;
}

bool
FrontendSession::readerValidate(DsId ds, NodeId backend, uint64_t sn)
{
    tracking_ = false;
    uint64_t now_sn = 0;
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        now_sn = c->node->nvm().read64(
            namingField(ds, backend, naming_field::kSeqNum).offset);
        clock_.advance(lat_.nvm_read_ns);
    } else {
        const Status st = guarded(backend, [&] {
            return verbs_.read64(
                namingField(ds, backend, naming_field::kSeqNum), &now_sn);
        });
        if (!ok(st))
            return false;
    }
    if (now_sn == sn)
        return true;
    // Conflict: drop every cache entry this read touched so the retry
    // fetches fresh data instead of spinning on stale copies.
    if (cfg_.use_cache) {
        for (const RemotePtr &p : tracked_reads_)
            cache_->invalidate(p);
    }
    tracked_reads_.clear();
    return false;
}

// ---------------------------------------------------------------------
// Naming space
// ---------------------------------------------------------------------

Status
FrontendSession::createDs(NodeId backend, std::string_view name,
                          DsType type, DsId *id)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    uint64_t args[2] = {fnv1a64(name), static_cast<uint64_t>(type)};
    uint64_t rets[4] = {};
    const Status st = rpcCall(*c, RpcOp::CreateName, args, {}, rets);
    if (!ok(st))
        return st;
    *id = static_cast<DsId>(rets[0]);
    return Status::Ok;
}

Status
FrontendSession::openDs(NodeId backend, std::string_view name, DsId *id,
                        DsType *type)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    uint64_t args[1] = {fnv1a64(name)};
    uint64_t rets[4] = {};
    const Status st = rpcCall(*c, RpcOp::LookupName, args, {}, rets);
    if (!ok(st))
        return st;
    *id = static_cast<DsId>(rets[0]);
    if (type != nullptr)
        *type = static_cast<DsType>(rets[1]);
    return Status::Ok;
}

Status
FrontendSession::readDsMeta(DsId ds, NodeId backend, DsMeta *out)
{
    const RemotePtr base = namingField(ds, backend, naming_field::kRoot);
    uint64_t buf[3];
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        c->node->nvm().read(base.offset, buf, sizeof(buf));
        clock_.advance(lat_.nvm_read_ns);
    } else {
        const Status st = guarded(
            backend, [&] { return verbs_.read(base, buf, sizeof(buf)); });
        if (!ok(st))
            return st;
    }
    out->root_raw = buf[0];
    out->version = buf[1];
    out->gc_epoch = buf[2];
    const auto gc_key = std::make_pair(backend, ds);
    auto it = gc_epoch_seen_.find(gc_key);
    if (it == gc_epoch_seen_.end()) {
        gc_epoch_seen_[gc_key] = out->gc_epoch;
    } else if (it->second != out->gc_epoch) {
        // Retired versions were reclaimed; cached nodes may alias reused
        // NVM now (Section 6.2). Learned prefetch runs hold the same
        // stale addresses, so they go too.
        if (cfg_.use_cache)
            cache_->invalidateDs(ds);
        prefetch_.invalidateDs(ds);
        it->second = out->gc_epoch;
    }
    return Status::Ok;
}

Status
FrontendSession::casRoot(DsId ds, NodeId backend, uint64_t expected_raw,
                         uint64_t desired_raw, uint64_t *old_raw)
{
    const RemotePtr root = namingField(ds, backend, naming_field::kRoot);
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        *old_raw = c->node->nvm().compareAndSwap64(root.offset,
                                                   expected_raw,
                                                   desired_raw);
        clock_.advance(lat_.nvm_write_ns);
        return Status::Ok;
    }
    return guarded(backend, [&] {
        return verbs_.compareAndSwap(root, expected_raw, desired_raw,
                                     old_raw);
    });
}

Status
FrontendSession::readAux(DsId ds, NodeId backend, uint32_t idx, uint64_t *v)
{
    const RemotePtr p = namingField(ds, backend,
                                    naming_field::kAux0 + idx * 8);
    if (overlayLookup(p, v, sizeof(*v))) {
        clock_.advance(lat_.dram_access_ns);
        return Status::Ok;
    }
    if (cfg_.symmetric)
        return symmetricRead(p, v, sizeof(*v));
    return guarded(backend, [&] { return verbs_.read64(p, v); });
}

Status
FrontendSession::writeAux(DsId ds, NodeId backend, uint32_t idx, uint64_t v)
{
    const RemotePtr p = namingField(ds, backend,
                                    naming_field::kAux0 + idx * 8);
    return logWrite(ds, p, &v, sizeof(v));
}

Status
FrontendSession::writeAuxRange(DsId ds, NodeId backend, uint32_t first,
                               const uint64_t *vals, uint32_t count)
{
    const RemotePtr p = namingField(ds, backend,
                                    naming_field::kAux0 + first * 8);
    return logWrite(ds, p, vals, count * 8);
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

void
FrontendSession::setReplayer(DsId ds, NodeId backend, Replayer fn)
{
    replayers_[{backend, ds}] = std::move(fn);
}

void
FrontendSession::setFailoverHook(DsId ds, NodeId backend,
                                 std::function<Status()> fn)
{
    failover_hooks_[{backend, ds}] = std::move(fn);
}

void
FrontendSession::simulateCrash()
{
    flush_hooks_.clear();
    post_flush_hooks_.clear();
    failover_hooks_.clear();
    overlay_.clear();
    pinned_.clear();
    tracked_reads_.clear();
    tracking_ = false;
    held_locks_.clear();
    writer_gen_.clear();
    gc_epoch_seen_.clear();
    // Pre-crash seqlock observations are volatile state: a recovered
    // front-end that trusted them would skip the cache-invalidation path
    // in readerLock on the first post-recovery read.
    sn_seen_.clear();
    local_retired_.clear();
    replayers_.clear();
    ops_in_batch_ = 0;
    in_op_ = false;
    cache_->clear();
    prefetch_.clear();   // learned runs are volatile front-end state
    verbs_.dropPosted(); // pending WQE chains die with the process
    pending_reads_.clear(); // parked reads die with their frames
    pipeline_posted_ops_ = false;
    pipeline_commit_deferred_ = false;
    pipe_gates_.clear();
    pipe_dirty_.clear();
    pipe_write_seq_ = 0;
    for (auto &[id, c] : backends_) {
        c.groups.clear();
        c.retired.clear();
        c.alloc->loseVolatileState();
    }
}

Status
FrontendSession::recover()
{
    // Recovery replay is not on any client's critical path: its verbs
    // run Background so the NIC's QoS arbiter can keep it from crowding
    // live sessions (no-op under the legacy scalar model).
    Verbs::ClassScope bg(verbs_, VerbClass::Background);
    for (auto &[id, c] : backends_) {
        // Fetch the authoritative log positions.
        clock_.advance(lat_.rdma_read_rtt_ns +
                       lat_.wireBytes(sizeof(LogControl)));
        // Case 2.a/3.a: a fully persisted tail transaction rolls forward.
        c.node->recoverTailTx(c.slot);
        // Release any writer lock our previous incarnation held.
        c.node->releaseStaleLocks(c.slot);

        const LogControl ctl = c.node->readControl(c.slot);
        c.lpn = ctl.lpn;
        c.opn = ctl.opn;
        c.memlog_head = ctl.memlog_head;
        c.oplog_head = ctl.oplog_head;

        // Case 2.b/2.c: re-execute operations whose memory logs never
        // made it into a replayed transaction.
        const auto ops = c.node->uncoveredOps(c.slot);
        for (const ParsedOpLog &op : ops) {
            clock_.advance(lat_.rdma_read_rtt_ns +
                           lat_.wireBytes(op.wire_len));
            auto rit = replayers_.find(
                std::make_pair(id, static_cast<DsId>(op.ds_id)));
            if (rit == replayers_.end())
                continue; // structure not re-opened; skip
            const Status st = rit->second(op);
            if (!ok(st) && st != Status::Exists)
                return st;
        }
    }
    return flushAll();
}

Status
FrontendSession::failover(NodeId failed, BackendNode *replacement)
{
    auto it = backends_.find(failed);
    if (it == backends_.end())
        return Status::InvalidArgument;
    assert(replacement->id() == failed &&
           "a promoted back-end keeps the node id so RemotePtrs stay valid");
    BackendCtx &c = it->second;
    c.node = replacement;
    c.groups.clear();
    c.retired.clear();
    verbs_.detach(failed);
    verbs_.attach(failed, replacement->rdmaTarget());
    c.rpc = std::make_unique<RfpRpc>(&verbs_, replacement, c.slot);
    c.alloc->loseVolatileState();
    cache_->clear(); // Section 4.3: aborts clear the cache
    prefetch_.clear(); // predictions refer to the failed node's layout
    overlay_.clear();
    pinned_.clear();

    uint32_t slot = 0;
    const Status st =
        replacement->registerFrontend(cfg_.session_id, &slot);
    if (!ok(st))
        return st;
    c.slot = slot;
    // Live data structure handles reset their volatile shadows to the
    // recovered NVM image before replay re-executes uncovered ops.
    for (auto &[key, hook] : failover_hooks_) {
        if (key.first == failed) {
            const Status hst = hook();
            if (!ok(hst))
                return hst;
        }
    }
    return recover();
}

Status
FrontendSession::handleBackendFailure(NodeId id)
{
    if (resolver_ == nullptr)
        return Status::BackendCrashed;
    in_failover_ = true;
    // Writer locks held on the failed incarnation died with it: the
    // replacement releases them from the lock-ahead records during
    // recovery, and op-log replay re-executes the operations that held
    // them — so forget them here rather than re-releasing stale state.
    for (auto it = held_locks_.begin(); it != held_locks_.end();) {
        if (it->first.first == id)
            it = held_locks_.erase(it);
        else
            ++it;
    }
    Status result = Status::Unavailable;
    PromotionCounters &pc = promo_[id];
    uint64_t observed = 0;
    if (const BackendCtx *c = ctx(id); c != nullptr)
        observed = c->epoch;
    // Race outcomes are per failover *episode*: a promotion lost (or a
    // stale-epoch fence) reported by several polls of the same episode
    // counts once.
    bool lost_counted = false;
    bool stale_counted = false;
    for (uint32_t i = 0; i < fo_cfg_.max_attempts; ++i) {
        const ResolveOutcome out =
            resolver_(ResolveRequest{id, clock_.now(), cfg_.session_id,
                                     observed});
        if (out.stale_fenced && !stale_counted) {
            ++pc.stale_epoch_fenced;
            stale_counted = true;
        }
        if (out.lost_promotion && !lost_counted) {
            ++pc.promotions_lost;
            lost_counted = true;
        }
        if (out.won_promotion)
            ++pc.promotions_won;
        observed = out.epoch; // adopt the slot's current epoch
        if (out.node != nullptr && !out.node->failure().crashed()) {
            const Status st = failover(id, out.node);
            if (ok(st)) {
                if (BackendCtx *c = ctx(id); c != nullptr)
                    c->epoch = out.epoch;
                ++failovers_completed_;
                result = Status::Ok;
                break;
            }
            // The replacement died under recovery; poll again.
        }
        // The cluster is still waiting out the failed node's lease (the
        // mirror must not be promoted while the old incarnation might
        // still serve writes) — burn a quantum of virtual time.
        clock_.advance(fo_cfg_.wait_quantum_ns);
        failover_wait_ns_ += fo_cfg_.wait_quantum_ns;
    }
    in_failover_ = false;
    return result;
}

Status
FrontendSession::tryHeal(NodeId id)
{
    BackendCtx *c = ctx(id);
    if (c == nullptr)
        return Status::InvalidArgument;
    if (resolver_ == nullptr || in_failover_)
        return c->node->failure().crashed() ? Status::Unavailable
                                            : Status::Ok;
    const ResolveOutcome out = resolver_(
        ResolveRequest{id, clock_.now(), cfg_.session_id, c->epoch});
    PromotionCounters &pc = promo_[id];
    if (out.stale_fenced)
        ++pc.stale_epoch_fenced;
    if (out.lost_promotion)
        ++pc.promotions_lost;
    if (out.won_promotion)
        ++pc.promotions_won;
    if (out.node == nullptr || out.node->failure().crashed())
        return Status::Unavailable;
    if (out.node == c->node && out.epoch == c->epoch &&
        !c->node->failure().crashed()) {
        return Status::Ok; // already attached to the serving incarnation
    }
    in_failover_ = true;
    // Forget writer locks held on the superseded incarnation, exactly as
    // the blocking heal does: the replacement releases them from the
    // lock-ahead records and replay re-executes their owners.
    for (auto it = held_locks_.begin(); it != held_locks_.end();) {
        if (it->first.first == id)
            it = held_locks_.erase(it);
        else
            ++it;
    }
    const Status st = failover(id, out.node);
    in_failover_ = false;
    if (!ok(st))
        return Status::Unavailable;
    c->epoch = out.epoch;
    ++failovers_completed_;
    return Status::Ok;
}

void
FrontendSession::noteBackendEpoch(NodeId id, uint64_t epoch)
{
    if (BackendCtx *c = ctx(id); c != nullptr)
        c->epoch = epoch;
}

uint64_t
FrontendSession::backendEpoch(NodeId id) const
{
    const BackendCtx *c = ctx(id);
    return c == nullptr ? 0 : c->epoch;
}

SessionStats
FrontendSession::stats() const
{
    SessionStats s;
    s.ops_started = ops_started_;
    s.tx_flushes = tx_flushes_;
    s.verbs = verbs_.counters();
    s.retry = verbs_.retryStats();
    s.prefetch.batches = prefetch_batches_;
    s.prefetch.issued = prefetch_issued_;
    s.prefetch.hits = cache_->prefetchHits();
    s.prefetch.wasted = cache_->prefetchWasted();
    s.logfmt = logfmt_;
    s.pipeline.depth = cfg_.pipeline_depth;
    s.pipeline.ops = pipe_ops_;
    s.pipeline.runs = pipe_runs_;
    s.pipeline.rounds = pipe_rounds_;
    s.pipeline.batched_reads = pipe_batched_reads_;
    s.pipeline.solo_rounds = pipe_solo_rounds_;
    s.pipeline.max_in_flight = pipe_max_in_flight_;
    s.pipeline.deferred_commits = pipe_deferred_commits_;
    s.pipeline.batched_appends = pipe_batched_appends_;
    s.pipeline.coalesced_fences = pipe_coalesced_fences_;
    s.pipeline.dep_stalls = pipe_dep_stalls_;
    s.retry.failovers += failovers_completed_;
    s.retry.failover_wait_ns += failover_wait_ns_;
    for (const auto &[id, pc] : promo_) {
        s.retry.promotions_won += pc.promotions_won;
        s.retry.promotions_lost += pc.promotions_lost;
        s.retry.stale_epoch_fenced += pc.stale_epoch_fenced;
    }
    for (const auto &[id, c] : backends_) {
        if (c.rpc != nullptr) {
            s.retry.rpc_resends += c.rpc->resends();
            s.retry.rpc_dup_responses += c.rpc->dupResponsesDropped();
        }
    }
    return s;
}

void
FrontendSession::resetStats()
{
    ops_started_ = 0;
    tx_flushes_ = 0;
    logfmt_ = LogFormatStats{};
    failovers_completed_ = 0;
    failover_wait_ns_ = 0;
    promo_.clear();
    verbs_.resetStats();
    cache_->resetStats();
    prefetch_batches_ = 0;
    prefetch_issued_ = 0;
    pipe_ops_ = 0;
    pipe_runs_ = 0;
    pipe_rounds_ = 0;
    pipe_batched_reads_ = 0;
    pipe_solo_rounds_ = 0;
    pipe_max_in_flight_ = 0;
    pipe_deferred_commits_ = 0;
    pipe_batched_appends_ = 0;
    pipe_coalesced_fences_ = 0;
    pipe_dep_stalls_ = 0;
    hist_commit_ = Histogram{};
    hist_fanout_ = Histogram{};
    hist_read_remote_ = Histogram{};
    hist_read_local_ = Histogram{};
}

} // namespace asymnvm
