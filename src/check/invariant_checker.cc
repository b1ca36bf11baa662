#include "check/invariant_checker.h"

#include <sstream>

namespace asymnvm {

namespace {

/** Walk-length cap: detects linkage cycles in a corrupt image. */
constexpr uint64_t kMaxWalk = 1u << 20;

std::string
fmt(const char *what, DsId ds, const std::string &detail)
{
    std::ostringstream os;
    os << what << " (ds " << ds << "): " << detail;
    return os.str();
}

} // namespace

// The image structs must mirror the DS-private node layouts exactly; the
// DS headers static_assert the same sizes.
static_assert(sizeof(Value) == 64);

std::string
AuditReport::str() const
{
    std::ostringstream os;
    for (const auto &v : violations)
        os << "  - " << v << "\n";
    return os.str();
}

std::optional<NamingEntry>
InvariantChecker::entryOfType(DsId ds, DsType want, const char *what,
                              AuditReport *rep)
{
    // Read the authoritative NVM copy, not the back-end's volatile shadow:
    // front-ends update naming fields one-sided.
    NamingEntry e;
    node_->nvm().read(node_->layout().namingEntryOff(ds), &e, sizeof(e));
    if (e.name_hash == 0) {
        rep->add(fmt(what, ds, "naming entry is free"));
        return std::nullopt;
    }
    if (e.type != static_cast<uint32_t>(want)) {
        rep->add(fmt(what, ds,
                     "naming entry type " + std::to_string(e.type) +
                         " does not match the audited structure"));
        return std::nullopt;
    }
    return e;
}

bool
InvariantChecker::readNodeImage(uint64_t raw, void *image, size_t size,
                                const char *what, AuditReport *rep)
{
    const RemotePtr p = RemotePtr::fromRaw(raw);
    const Layout &lay = node_->layout();
    std::ostringstream at;
    at << what << " @ 0x" << std::hex << raw;
    if (p.backend != node_->id()) {
        rep->add(at.str() + ": points at a foreign back-end");
        return false;
    }
    if (p.offset < lay.dataOff() || p.offset + size > lay.dataEnd()) {
        rep->add(at.str() + ": outside the data area");
        return false;
    }
    // Blocks are aligned relative to dataOff() (itself only 256-aligned),
    // so derive block indices from data-area-relative offsets.
    const uint64_t bs = lay.super.block_size;
    const uint64_t first = (p.offset - lay.dataOff()) / bs;
    const uint64_t last = (p.offset + size - 1 - lay.dataOff()) / bs;
    for (uint64_t b = first; b <= last; ++b) {
        if (!node_->allocator().isAllocated(lay.dataOff() + b * bs)) {
            rep->add(at.str() + ": reachable node in an unallocated block");
            return false;
        }
    }
    node_->nvm().read(p.offset, image, size);
    return true;
}

void
InvariantChecker::checkQuiescent(DsId ds, AuditReport *rep)
{
    const uint64_t entry_off = node_->layout().namingEntryOff(ds);
    const uint64_t lock =
        node_->nvm().read64(entry_off + naming_field::kWriterLock);
    if (lock != 0)
        rep->add(fmt("quiescence", ds,
                     "writer lock still held by slot " +
                         std::to_string(lock - 1) + " after recovery"));
    const uint64_t sn =
        node_->nvm().read64(entry_off + naming_field::kSeqNum);
    if (sn % 2 != 0)
        rep->add(fmt("quiescence", ds,
                     "seqlock SN " + std::to_string(sn) +
                         " is odd (writer died in a critical section)"));
}

void
InvariantChecker::checkLogControl(uint32_t slot, AuditReport *rep)
{
    const LogControl ctl = node_->readControl(slot);
    const LogRing ring = node_->layout().oplogRing(slot);
    auto bad = [&](const std::string &d) {
        rep->add("log control (slot " + std::to_string(slot) + "): " + d);
    };
    if (ctl.covered_opn > ctl.opn)
        bad("covered_opn " + std::to_string(ctl.covered_opn) +
            " exceeds opn " + std::to_string(ctl.opn));
    if (ctl.memlog_applied > ctl.memlog_head)
        bad("memlog_applied ahead of memlog_head");
    if (ctl.oplog_tail > ctl.oplog_head)
        bad("oplog_tail ahead of oplog_head");
    if (!ring.holds(ctl.oplog_head, ctl.oplog_tail))
        bad("uncovered op window wider than the op-log ring");
    if (ctl.lock_ahead != 0)
        bad("lock-ahead record not cleared by recovery");
    // Every record recovery would replay must decode; uncoveredOps()
    // silently skips undecodable ones, so a count mismatch means a
    // corrupt record sits inside the recovery window.
    const uint64_t window = node_->opWindowSize(slot);
    const size_t decodable = node_->uncoveredOps(slot).size();
    if (decodable != window)
        bad(std::to_string(window - decodable) +
            " op-window record(s) do not decode");
    // Recovery rolls every landed record past the head forward while it
    // carries the next OPN; one still found there, past any lap pad,
    // means the roll-forward stopped early.
    if (ctl.session_epoch != 0) {
        const auto next = ring.readOpLog(
            node_->nvm(), ring.recordStart(node_->nvm(), ctl.oplog_head));
        if (next.has_value() && next->opn == ctl.opn)
            bad("landed op-log record opn " + std::to_string(ctl.opn) +
                " past the head was not rolled forward");
    }
}

void
InvariantChecker::checkHeap(DsId ds, AuditReport *rep)
{
    NamingEntry e;
    node_->nvm().read(node_->layout().namingEntryOff(ds), &e, sizeof(e));
    switch (static_cast<DsType>(e.type)) {
    case DsType::Stack:
        stackContents(ds, rep);
        break;
    case DsType::Queue:
        queueContents(ds, rep);
        break;
    case DsType::HashTable:
        hashContents(ds, rep);
        break;
    case DsType::SkipList:
        skipContents(ds, rep);
        break;
    default:
        rep->add(fmt("heap audit", ds, "unsupported structure type"));
        break;
    }
}

std::optional<std::vector<uint64_t>>
InvariantChecker::stackContents(DsId ds, AuditReport *rep)
{
    const auto e = entryOfType(ds, DsType::Stack, "stack", rep);
    if (!e)
        return std::nullopt;
    std::vector<uint64_t> out;
    uint64_t cur = e->aux[0];
    while (cur != 0) {
        if (out.size() >= kMaxWalk) {
            rep->add(fmt("stack", ds, "cycle in the node chain"));
            return std::nullopt;
        }
        ListNodeImage n;
        if (!readNodeImage(cur, &n, sizeof(n), "stack node", rep))
            return std::nullopt;
        out.push_back(n.value.asU64());
        cur = n.next_raw;
    }
    if (strict_ && out.size() != e->aux[1])
        rep->add(fmt("stack", ds,
                     "chain length " + std::to_string(out.size()) +
                         " != persisted count " +
                         std::to_string(e->aux[1])));
    return out;
}

std::optional<std::vector<uint64_t>>
InvariantChecker::queueContents(DsId ds, AuditReport *rep)
{
    const auto e = entryOfType(ds, DsType::Queue, "queue", rep);
    if (!e)
        return std::nullopt;
    std::vector<uint64_t> out;
    uint64_t cur = e->aux[0];
    uint64_t last = 0;
    while (cur != 0) {
        if (out.size() >= kMaxWalk) {
            rep->add(fmt("queue", ds, "cycle in the node chain"));
            return std::nullopt;
        }
        ListNodeImage n;
        if (!readNodeImage(cur, &n, sizeof(n), "queue node", rep))
            return std::nullopt;
        out.push_back(n.value.asU64());
        last = cur;
        cur = n.next_raw;
    }
    if (strict_) {
        if (out.size() != e->aux[2])
            rep->add(fmt("queue", ds,
                         "chain length " + std::to_string(out.size()) +
                             " != persisted count " +
                             std::to_string(e->aux[2])));
        if (e->aux[0] == 0 && e->aux[1] != 0)
            rep->add(fmt("queue", ds, "empty queue with a stale tail"));
        if (e->aux[0] != 0 && e->aux[1] != last)
            rep->add(fmt("queue", ds,
                         "tail pointer does not reach the last node"));
    }
    return out;
}

std::optional<std::map<Key, uint64_t>>
InvariantChecker::hashContents(DsId ds, AuditReport *rep)
{
    const auto e = entryOfType(ds, DsType::HashTable, "hash table", rep);
    if (!e)
        return std::nullopt;
    const uint64_t array_off = e->aux[0];
    const uint64_t nbuckets = e->aux[1];
    const Layout &lay = node_->layout();
    if (nbuckets == 0 || (nbuckets & (nbuckets - 1)) != 0) {
        rep->add(fmt("hash table", ds, "bucket count is not a power of 2"));
        return std::nullopt;
    }
    if (array_off < lay.dataOff() ||
        array_off + nbuckets * 8 > lay.dataEnd()) {
        rep->add(fmt("hash table", ds, "bucket array outside data area"));
        return std::nullopt;
    }
    const uint64_t bs = lay.super.block_size;
    const uint64_t first = (array_off - lay.dataOff()) / bs;
    const uint64_t last =
        (array_off + nbuckets * 8 - 1 - lay.dataOff()) / bs;
    for (uint64_t b = first; b <= last; ++b) {
        if (!node_->allocator().isAllocated(lay.dataOff() + b * bs)) {
            rep->add(fmt("hash table", ds,
                         "bucket array in an unallocated block"));
            return std::nullopt;
        }
    }
    std::map<Key, uint64_t> out;
    uint64_t hops = 0;
    for (uint64_t b = 0; b < nbuckets; ++b) {
        uint64_t cur = node_->nvm().read64(array_off + b * 8);
        while (cur != 0) {
            if (++hops > kMaxWalk) {
                rep->add(fmt("hash table", ds, "cycle in a bucket chain"));
                return std::nullopt;
            }
            HashNodeImage n;
            if (!readNodeImage(cur, &n, sizeof(n), "hash node", rep))
                return std::nullopt;
            if (!out.emplace(n.key, n.value.asU64()).second) {
                rep->add(fmt("hash table", ds,
                             "duplicate key " + std::to_string(n.key)));
                return std::nullopt;
            }
            cur = n.next_raw;
        }
    }
    if (strict_ && out.size() != e->aux[2])
        rep->add(fmt("hash table", ds,
                     "reachable entries " + std::to_string(out.size()) +
                         " != persisted count " +
                         std::to_string(e->aux[2])));
    return out;
}

std::optional<std::map<Key, uint64_t>>
InvariantChecker::skipContents(DsId ds, AuditReport *rep)
{
    const auto e = entryOfType(ds, DsType::SkipList, "skiplist", rep);
    if (!e)
        return std::nullopt;
    SkipNodeImage sentinel;
    if (!readNodeImage(e->aux[0], &sentinel, sizeof(sentinel),
                       "skiplist sentinel", rep))
        return std::nullopt;
    constexpr uint32_t kMaxLevel = 16;
    if (sentinel.level != kMaxLevel) {
        rep->add(fmt("skiplist", ds, "sentinel tower height corrupt"));
        return std::nullopt;
    }

    // Bottom level: the authoritative sorted chain.
    std::map<Key, uint64_t> out;
    std::map<uint64_t, uint32_t> level0; // node raw -> tower height
    uint64_t cur = sentinel.next[0];
    bool have_prev = false;
    Key prev = 0;
    while (cur != 0) {
        if (out.size() >= kMaxWalk) {
            rep->add(fmt("skiplist", ds, "cycle in the bottom chain"));
            return std::nullopt;
        }
        SkipNodeImage n;
        if (!readNodeImage(cur, &n, sizeof(n), "skiplist node", rep))
            return std::nullopt;
        if (n.level < 1 || n.level > kMaxLevel) {
            rep->add(fmt("skiplist", ds,
                         "node tower height " + std::to_string(n.level) +
                             " out of range"));
            return std::nullopt;
        }
        if (have_prev && n.key <= prev) {
            rep->add(fmt("skiplist", ds, "bottom chain keys not ascending"));
            return std::nullopt;
        }
        prev = n.key;
        have_prev = true;
        out.emplace(n.key, n.value.asU64());
        level0.emplace(cur, n.level);
        cur = n.next[0];
    }
    if (strict_ && out.size() != e->aux[1])
        rep->add(fmt("skiplist", ds,
                     "bottom-chain length " + std::to_string(out.size()) +
                         " != persisted count " +
                         std::to_string(e->aux[1])));

    // Upper levels must stay sorted; in strict (logged) mode every node in
    // an express lane must also be on the bottom chain with a tall-enough
    // tower. Naive mode can legally crash half way through linking or
    // unlinking a tower, so only allocation and ordering are required.
    for (uint32_t l = 1; l < kMaxLevel; ++l) {
        cur = sentinel.next[l];
        have_prev = false;
        uint64_t hops = 0;
        while (cur != 0) {
            if (++hops > kMaxWalk) {
                rep->add(fmt("skiplist", ds,
                             "cycle at level " + std::to_string(l)));
                return std::nullopt;
            }
            SkipNodeImage n;
            if (!readNodeImage(cur, &n, sizeof(n), "skiplist node", rep))
                return std::nullopt;
            if (have_prev && n.key <= prev) {
                rep->add(fmt("skiplist", ds,
                             "level " + std::to_string(l) +
                                 " keys not ascending"));
                return std::nullopt;
            }
            prev = n.key;
            have_prev = true;
            if (strict_) {
                auto it = level0.find(cur);
                if (it == level0.end())
                    rep->add(fmt("skiplist", ds,
                                 "level " + std::to_string(l) +
                                     " links a node missing from the "
                                     "bottom chain"));
                else if (it->second <= l)
                    rep->add(fmt("skiplist", ds,
                                 "node linked above its tower height"));
            }
            cur = n.next[l];
        }
    }
    return out;
}

} // namespace asymnvm
