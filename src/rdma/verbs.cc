#include "rdma/verbs.h"

#include <algorithm>
#include <cassert>

namespace asymnvm {

void
Verbs::flushChain(NodeId id, PostChain &chain, bool own_doorbell)
{
    if (chain.wqes == 0)
        return;
    uint64_t cost = lat_->doorbell_batch_wqe_ns * chain.wqes;
    if (own_doorbell) {
        cost += lat_->post_overhead_ns;
        ++counters_.doorbells;
    }
    clock_->advance(cost);
    auto it = targets_.find(id);
    if (it != targets_.end() && it->second.nic != nullptr)
        clock_->advance(it->second.nic->reserveBatch(
            chain.wqes, clock_->now(), qp_id_, verb_class_));
    chain = PostChain{};
}

Status
Verbs::begin(NodeId id, VerbKind kind, uint64_t write_len, RdmaTarget **out)
{
    lost_completion_ = false;
    auto it = targets_.find(id);
    if (it == targets_.end())
        return Status::Unavailable;
    // Queue-pair ordering: this verb executes after every pending posted
    // write on the same target, so the chain's deferred cost is settled
    // here, riding this verb's doorbell.
    auto cit = chains_.find(id);
    if (cit != chains_.end()) {
        flushChain(id, cit->second, /*own_doorbell=*/false);
        assert(cit->second.wqes == 0 &&
               "posted chain must drain before a later verb completes");
    }
    RdmaTarget &t = it->second;
    if (t.fail != nullptr) {
        const auto partial = t.fail->onVerb(write_len);
        if (partial.has_value()) {
            // The back-end crashed under this verb. For a write, a torn
            // prefix may still land in NVM; the caller sees the failure
            // through the (simulated) RNIC completion error. Fail-stop
            // outranks any transient fault the model would have injected.
            partial_write_len_pending_ = *partial;
            *out = &t;
            return Status::BackendCrashed;
        }
    }
    *out = &t;
    if (qp_error_.count(id) != 0)
        return Status::QpError; // endpoint must reset the QP first
    if (t.faults != nullptr && t.faults->armed()) {
        const FaultVerb fv = kind == VerbKind::Read     ? FaultVerb::Read
                             : kind == VerbKind::Atomic ? FaultVerb::Atomic
                                                        : FaultVerb::Write;
        const FaultAction a = t.faults->onVerb(fv, clock_->now());
        if (a.slow_ns != 0)
            clock_->advance(a.slow_ns); // gray node: degraded service
        if (a.qp_error) {
            qp_error_.insert(id);
            ++retry_stats_.qp_errors;
            return Status::QpError;
        }
        if (a.drop) {
            // The issuing session waits the full verb timeout before it
            // declares the completion lost.
            clock_->advance(policy_.verb_timeout_ns);
            ++retry_stats_.timeouts;
            if (a.drop_after)
                lost_completion_ = true; // executes, then reports the loss
            else
                return Status::Timeout;
        }
        if (a.delay_ns != 0) {
            clock_->advance(a.delay_ns);
            ++retry_stats_.delayed;
        }
    }
    if (t.nic != nullptr)
        clock_->advance(
            t.nic->reserve(clock_->now(), qp_id_, verb_class_));
    return Status::Ok;
}

void
Verbs::charge(uint64_t base_rtt, uint64_t payload)
{
    clock_->advance(base_rtt + lat_->wireBytes(payload));
    ++verbs_issued_;
    ++counters_.doorbells; // every synchronous verb kicks the NIC itself
    bytes_moved_ += payload;
}

void
Verbs::resetQp(NodeId id)
{
    if (qp_error_.erase(id) == 0)
        return;
    clock_->advance(policy_.qp_reset_ns);
    ++retry_stats_.qp_resets;
}

template <typename Once>
Status
Verbs::retrying(VerbKind kind, NodeId id, Once &&once)
{
    uint64_t backoff = policy_.base_backoff_ns;
    for (uint32_t attempt = 1;; ++attempt) {
        const Status st = once();
        if (!isTransient(st))
            return st; // fail-stop (or success) escapes to the caller
        if (attempt >= policy_.max_attempts)
            return st; // budget spent: the storm outlived every retry
        if (st == Status::QpError)
            resetQp(id); // RESET -> INIT -> RTR -> RTS before re-issuing
        switch (kind) {
          case VerbKind::Read: ++retry_stats_.retries_read; break;
          case VerbKind::Write: ++retry_stats_.retries_write; break;
          case VerbKind::Posted: ++retry_stats_.retries_posted; break;
          case VerbKind::Atomic: ++retry_stats_.retries_atomic; break;
        }
        // Capped exponential backoff with deterministic jitter, charged
        // to the virtual clock: delay in [d - d*j/2, d + d*j/2].
        uint64_t delay = backoff;
        if (policy_.jitter > 0) {
            const uint64_t span = static_cast<uint64_t>(
                static_cast<double>(delay) * policy_.jitter);
            if (span > 0)
                delay = delay - span / 2 + rng_.nextBounded(span + 1);
        }
        clock_->advance(delay);
        retry_stats_.backoff_ns += delay;
        backoff = std::min<uint64_t>(backoff * 2, policy_.max_backoff_ns);
    }
}

Status
Verbs::read(RemotePtr src, void *dst, size_t len)
{
    return retrying(VerbKind::Read, src.backend,
                    [&] { return readOnce(src, dst, len); });
}

Status
Verbs::readOnce(RemotePtr src, void *dst, size_t len)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(src.backend, VerbKind::Read, 0, &t);
    charge(lat_->rdma_read_rtt_ns, len);
    ++counters_.reads;
    counters_.read_bytes += len;
    if (!ok(st))
        return st;
    if (src.offset + len > t->nvm->size())
        return Status::InvalidArgument; // RNIC access violation
    t->nvm->read(src.offset, dst, len);
    return Status::Ok;
}

Status
Verbs::write(RemotePtr dst, const void *src, size_t len)
{
    return retrying(VerbKind::Write, dst.backend,
                    [&] { return writeOnce(dst, src, len); });
}

Status
Verbs::writeOnce(RemotePtr dst, const void *src, size_t len)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(dst.backend, VerbKind::Write, len, &t);
    charge(lat_->rdma_write_rtt_ns, len);
    ++counters_.writes;
    counters_.write_bytes += len;
    if (t != nullptr && dst.offset + len > t->nvm->size())
        return Status::InvalidArgument;
    if (st == Status::BackendCrashed && t != nullptr) {
        // Apply the torn prefix through the device's journal, then leave
        // the device "down".
        t->nvm->applyTornWrite(dst.offset, src, len,
                               partial_write_len_pending_);
        return st;
    }
    if (!ok(st))
        return st;
    t->nvm->write(dst.offset, src, len);
    t->nvm->persist(); // DMA into the NVM DIMM is durable on completion
    if (t->on_write)
        t->on_write(dst.offset, len);
    if (lost_completion_) {
        // The payload landed but the completion dropped: the retry will
        // land the same (idempotent) bytes again.
        lost_completion_ = false;
        return Status::Timeout;
    }
    return Status::Ok;
}

Status
Verbs::writeAsync(RemotePtr dst, const void *src, size_t len)
{
    return retrying(VerbKind::Posted, dst.backend,
                    [&] { return writeAsyncOnce(dst, src, len); });
}

Status
Verbs::writeAsyncOnce(RemotePtr dst, const void *src, size_t len)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(dst.backend, VerbKind::Posted, len, &t);
    clock_->advance(lat_->post_overhead_ns);
    ++verbs_issued_;
    bytes_moved_ += len;
    ++counters_.posted;
    counters_.posted_bytes += len;
    ++counters_.wqes;
    ++counters_.doorbells; // posted alone: its own doorbell kicks the NIC
    if (t != nullptr && dst.offset + len > t->nvm->size())
        return Status::InvalidArgument;
    if (st == Status::BackendCrashed && t != nullptr) {
        t->nvm->applyTornWrite(dst.offset, src, len,
                               partial_write_len_pending_);
        return st;
    }
    if (!ok(st))
        return st;
    t->nvm->write(dst.offset, src, len);
    t->nvm->persist();
    if (t->on_write)
        t->on_write(dst.offset, len);
    if (lost_completion_) {
        lost_completion_ = false;
        return Status::Timeout;
    }
    return Status::Ok;
}

Status
Verbs::postWrite(RemotePtr dst, const void *src, size_t len)
{
    return retrying(VerbKind::Posted, dst.backend,
                    [&] { return postWriteOnce(dst, src, len); });
}

Status
Verbs::postWriteOnce(RemotePtr dst, const void *src, size_t len)
{
    auto it = targets_.find(dst.backend);
    if (it == targets_.end())
        return Status::Unavailable;
    RdmaTarget &t = it->second;
    // No NIC reservation and no doorbell here: the WQE only joins the
    // post list. Failure injection still sees one verb — a crash tears
    // this WQE and the rest of the chain never posts.
    std::optional<uint64_t> partial;
    if (t.fail != nullptr)
        partial = t.fail->onVerb(len);

    ++counters_.posted;
    counters_.posted_bytes += len;
    bytes_moved_ += len;

    if (dst.offset + len > t.nvm->size())
        return Status::InvalidArgument;
    if (partial.has_value()) {
        partial_write_len_pending_ = *partial;
        t.nvm->applyTornWrite(dst.offset, src, len, *partial);
        return Status::BackendCrashed;
    }
    if (qp_error_.count(dst.backend) != 0)
        return Status::QpError;
    bool lost_after = false;
    if (t.faults != nullptr && t.faults->armed()) {
        const FaultAction a = t.faults->onVerb(FaultVerb::Write,
                                               clock_->now());
        if (a.slow_ns != 0)
            clock_->advance(a.slow_ns);
        if (a.qp_error) {
            qp_error_.insert(dst.backend);
            ++retry_stats_.qp_errors;
            return Status::QpError;
        }
        if (a.drop) {
            clock_->advance(policy_.verb_timeout_ns);
            ++retry_stats_.timeouts;
            if (!a.drop_after)
                return Status::Timeout;
            lost_after = true;
        }
        if (a.delay_ns != 0) {
            clock_->advance(a.delay_ns);
            ++retry_stats_.delayed;
        }
    }
    if (lost_after) {
        // The payload lands in post order, but the WQE is reported lost:
        // the retry posts the same bytes again, and only the retried WQE
        // joins the chain accounting.
        t.nvm->write(dst.offset, src, len);
        t.nvm->persist();
        if (t.on_write)
            t.on_write(dst.offset, len);
        return Status::Timeout;
    }

    PostChain &chain = chains_[dst.backend];
    if (!chain.has_tail || dst.offset != chain.next_off) {
        // A gap in the destination starts a new WQE; a continuation is
        // one more scatter-gather entry of the running one.
        ++chain.wqes;
        ++counters_.wqes;
        ++verbs_issued_;
    }
    chain.has_tail = true;
    chain.next_off = dst.offset + len;
    chain.bytes += len;

    // The payload lands in post order; durability is guaranteed no later
    // than the completion of the next flushed verb on this queue pair.
    t.nvm->write(dst.offset, src, len);
    t.nvm->persist();
    if (t.on_write)
        t.on_write(dst.offset, len);
    return Status::Ok;
}

Status
Verbs::ringDoorbell()
{
    for (auto &[id, chain] : chains_)
        flushChain(id, chain, /*own_doorbell=*/true);
    return Status::Ok;
}

Status
Verbs::ringDoorbellFanout()
{
    // Launch phase: the CPU posts each target's chain and rings its
    // doorbell back to back — that cost is inherently serial on one core.
    uint64_t max_wait = 0;
    for (auto &[id, chain] : chains_) {
        if (chain.wqes == 0)
            continue;
        clock_->advance(lat_->post_overhead_ns +
                        lat_->doorbell_batch_wqe_ns * chain.wqes);
        ++counters_.doorbells;
        // Await phase contribution: this target's completion arrives a
        // round trip plus its chain's wire time plus its NIC queueing
        // delay after the doorbell. All targets progress concurrently, so
        // the fence waits only for the slowest.
        uint64_t wait =
            lat_->rdma_write_rtt_ns + lat_->wireBytes(chain.bytes);
        auto it = targets_.find(id);
        if (it != targets_.end() && it->second.nic != nullptr)
            wait += it->second.nic->reserveBatch(
                chain.wqes, clock_->now(), qp_id_, verb_class_);
        max_wait = std::max(max_wait, wait);
        chain = PostChain{};
    }
    if (max_wait != 0) {
        clock_->advance(max_wait);
        ++verbs_issued_; // the fence consumes one completion wait
    }
    return Status::Ok;
}

uint64_t
Verbs::pendingWqes() const
{
    uint64_t n = 0;
    for (const auto &[id, chain] : chains_)
        n += chain.wqes;
    return n;
}

Status
Verbs::postRead(RemotePtr src, void *dst, uint32_t len)
{
    if (targets_.count(src.backend) == 0)
        return Status::Unavailable;
    read_chains_[src.backend].push_back(ReadWqe{src.offset, dst, len});
    return Status::Ok;
}

Status
Verbs::readGather()
{
    Status result = Status::Ok;
    for (auto &[id, wqes] : read_chains_) {
        if (wqes.empty())
            continue;
        const Status st = retrying(VerbKind::Read, id,
                                   [&] { return readGatherOnce(id, wqes); });
        if (!ok(st) && ok(result))
            result = st;
    }
    read_chains_.clear();
    next_gather_ops_ = 1; // the tag covers exactly one gather
    return result;
}

Status
Verbs::readGatherOnce(NodeId id, const std::vector<ReadWqe> &wqes)
{
    auto it = targets_.find(id);
    if (it == targets_.end())
        return Status::Unavailable;
    // Queue-pair ordering: pending posted writes drain first, riding this
    // gather's doorbell.
    auto cit = chains_.find(id);
    if (cit != chains_.end())
        flushChain(id, cit->second, /*own_doorbell=*/false);
    RdmaTarget &t = it->second;

    const uint64_t n = wqes.size();
    uint64_t total = 0;
    for (const ReadWqe &w : wqes)
        total += w.len;

    // Posting cost and per-attempt accounting: ONE doorbell launches the
    // whole chain, and every retry re-posts every WQE, so the counters
    // move in whole-batch increments (the all-or-nothing invariant shows
    // up as reads % chain-size == 0).
    clock_->advance(lat_->post_overhead_ns +
                    lat_->doorbell_batch_wqe_ns * n);
    ++counters_.doorbells;
    ++counters_.read_gathers;
    counters_.reads += n;
    counters_.read_bytes += total;
    verbs_issued_ += n;
    bytes_moved_ += total;

    if (t.fail != nullptr) {
        for (uint64_t i = 0; i < n; ++i)
            if (t.fail->onVerb(0).has_value())
                return Status::BackendCrashed; // reads deliver nothing
    }
    if (qp_error_.count(id) != 0)
        return Status::QpError;

    uint64_t max_delay = 0;
    if (t.faults != nullptr && t.faults->armed()) {
        for (uint64_t i = 0; i < n; ++i) {
            const FaultAction a =
                t.faults->onVerb(FaultVerb::Read, clock_->now());
            if (a.slow_ns != 0)
                clock_->advance(a.slow_ns);
            if (a.qp_error) {
                // Mid-chain QP error: the remaining WQEs flush with error
                // completions and NO destination buffer was written — the
                // retry re-posts the whole chain.
                qp_error_.insert(id);
                ++retry_stats_.qp_errors;
                return Status::QpError;
            }
            if (a.drop) {
                clock_->advance(policy_.verb_timeout_ns);
                ++retry_stats_.timeouts;
                if (!a.drop_after)
                    return Status::Timeout; // never a partial gather
            }
            if (a.delay_ns != 0) {
                max_delay = std::max<uint64_t>(max_delay, a.delay_ns);
                ++retry_stats_.delayed;
            }
        }
    }
    if (max_delay != 0)
        clock_->advance(max_delay); // WQEs complete together: worst delay

    // Validate the WHOLE chain before delivering any byte: a bad address
    // fails the batch, never a prefix of it.
    for (const ReadWqe &w : wqes)
        if (w.offset + w.len > t.nvm->size())
            return Status::InvalidArgument;

    if (t.nic != nullptr)
        clock_->advance(t.nic->reserveGather(
            n, clock_->now(), next_gather_ops_, qp_id_, verb_class_));
    // One completion wait: the chained WQEs travel back to back, so the
    // session pays a single round trip plus the combined wire time.
    clock_->advance(lat_->rdma_read_rtt_ns + lat_->wireBytes(total));
    for (const ReadWqe &w : wqes)
        t.nvm->read(w.offset, w.dst, w.len);
    return Status::Ok;
}

uint64_t
Verbs::pendingReadWqes() const
{
    uint64_t n = 0;
    for (const auto &[id, wqes] : read_chains_)
        n += wqes.size();
    return n;
}

Status
Verbs::read64(RemotePtr src, uint64_t *out)
{
    return retrying(VerbKind::Atomic, src.backend,
                    [&] { return read64Once(src, out); });
}

Status
Verbs::read64Once(RemotePtr src, uint64_t *out)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(src.backend, VerbKind::Atomic, 0, &t);
    charge(lat_->rdma_atomic_rtt_ns, sizeof(uint64_t));
    ++counters_.atomics;
    counters_.atomic_bytes += sizeof(uint64_t);
    if (!ok(st))
        return st;
    if (src.offset + 8 > t->nvm->size())
        return Status::InvalidArgument;
    *out = t->nvm->read64(src.offset);
    return Status::Ok;
}

Status
Verbs::write64(RemotePtr dst, uint64_t v)
{
    return retrying(VerbKind::Atomic, dst.backend,
                    [&] { return write64Once(dst, v); });
}

Status
Verbs::write64Once(RemotePtr dst, uint64_t v)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(dst.backend, VerbKind::Atomic,
                            sizeof(uint64_t), &t);
    charge(lat_->rdma_atomic_rtt_ns, sizeof(uint64_t));
    ++counters_.atomics;
    counters_.atomic_bytes += sizeof(uint64_t);
    if (!ok(st))
        return st;
    t->nvm->write64Atomic(dst.offset, v);
    if (t->on_write)
        t->on_write(dst.offset, sizeof(uint64_t));
    return Status::Ok;
}

Status
Verbs::compareAndSwap(RemotePtr dst, uint64_t expected, uint64_t desired,
                      uint64_t *old)
{
    return retrying(VerbKind::Atomic, dst.backend,
                    [&] { return compareAndSwapOnce(dst, expected, desired, old); });
}

Status
Verbs::compareAndSwapOnce(RemotePtr dst, uint64_t expected, uint64_t desired,
                          uint64_t *old)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(dst.backend, VerbKind::Atomic,
                            sizeof(uint64_t), &t);
    charge(lat_->rdma_atomic_rtt_ns, sizeof(uint64_t));
    ++counters_.atomics;
    counters_.atomic_bytes += sizeof(uint64_t);
    if (!ok(st))
        return st;
    *old = t->nvm->compareAndSwap64(dst.offset, expected, desired);
    if (t->on_write)
        t->on_write(dst.offset, sizeof(uint64_t));
    return Status::Ok;
}

Status
Verbs::fetchAdd(RemotePtr dst, uint64_t delta, uint64_t *old)
{
    return retrying(VerbKind::Atomic, dst.backend,
                    [&] { return fetchAddOnce(dst, delta, old); });
}

Status
Verbs::fetchAddOnce(RemotePtr dst, uint64_t delta, uint64_t *old)
{
    RdmaTarget *t = nullptr;
    const Status st = begin(dst.backend, VerbKind::Atomic,
                            sizeof(uint64_t), &t);
    charge(lat_->rdma_atomic_rtt_ns, sizeof(uint64_t));
    ++counters_.atomics;
    counters_.atomic_bytes += sizeof(uint64_t);
    if (!ok(st))
        return st;
    *old = t->nvm->fetchAdd64(dst.offset, delta);
    if (t->on_write)
        t->on_write(dst.offset, sizeof(uint64_t));
    return Status::Ok;
}

} // namespace asymnvm
