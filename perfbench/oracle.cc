#include "oracle.h"

#include <algorithm>
#include <unordered_set>

namespace perfbench {

using asymnvm::Status;

Status
Model::get(size_t t, Key k, Value *out) const
{
    auto it = tables_[t].find(k);
    if (it == tables_[t].end())
        return Status::NotFound;
    *out = it->second;
    return Status::Ok;
}

void
Model::put(size_t t, Key k, const Value &v, uint64_t req)
{
    auto [it, fresh] = tables_[t].try_emplace(k, v);
    Undo u{Op::Put, static_cast<uint32_t>(t), k, std::nullopt, req};
    if (!fresh) {
        u.old = it->second;
        it->second = v;
    }
    log_.push_back(u);
}

bool
Model::erase(size_t t, Key k, uint64_t req)
{
    auto it = tables_[t].find(k);
    if (it == tables_[t].end())
        return false;
    log_.push_back(Undo{Op::Erase, static_cast<uint32_t>(t), k, it->second,
                        req});
    tables_[t].erase(it);
    return true;
}

void
Model::pushBack(size_t l, const Value &v, uint64_t req)
{
    lists_[l].push_back(v);
    log_.push_back(
        Undo{Op::PushBack, static_cast<uint32_t>(l), 0, std::nullopt, req});
}

std::optional<Value>
Model::popBack(size_t l, uint64_t req)
{
    if (lists_[l].empty())
        return std::nullopt;
    const Value v = lists_[l].back();
    lists_[l].pop_back();
    log_.push_back(Undo{Op::PopBack, static_cast<uint32_t>(l), 0, v, req});
    return v;
}

std::optional<Value>
Model::popFront(size_t l, uint64_t req)
{
    if (lists_[l].empty())
        return std::nullopt;
    const Value v = lists_[l].front();
    lists_[l].pop_front();
    log_.push_back(Undo{Op::PopFront, static_cast<uint32_t>(l), 0, v, req});
    return v;
}

void
Model::ack(uint64_t req)
{
    while (!log_.empty() && log_.front().req < req)
        log_.pop_front();
}

std::vector<Key>
Model::universe(size_t t) const
{
    std::unordered_set<Key> keys;
    for (const auto &[k, v] : tables_[t])
        keys.insert(k);
    for (const Undo &u : log_)
        if ((u.op == Op::Put || u.op == Op::Erase) && u.id == t)
            keys.insert(u.key);
    std::vector<Key> out(keys.begin(), keys.end());
    std::sort(out.begin(), out.end());
    return out;
}

bool
Model::keyMatches(size_t t, Key k, const Image &img) const
{
    auto want = tables_[t].find(k);
    auto got = img.tables[t].find(k);
    if (got == img.tables[t].end())
        return false;
    if (want == tables_[t].end())
        return !got->second.has_value();
    return got->second.has_value() && *got->second == want->second;
}

void
Model::undo(const Undo &u)
{
    switch (u.op) {
    case Op::Put:
    case Op::Erase:
        if (u.old.has_value())
            tables_[u.id][u.key] = *u.old;
        else
            tables_[u.id].erase(u.key);
        break;
    case Op::PushBack:
        lists_[u.id].pop_back();
        break;
    case Op::PopBack:
        lists_[u.id].push_back(*u.old);
        break;
    case Op::PopFront:
        lists_[u.id].push_front(*u.old);
        break;
    }
}

bool
Model::matchPrefix(const Image &img)
{
    auto listMatches = [&](size_t l) {
        return std::equal(lists_[l].begin(), lists_[l].end(),
                          img.lists[l].begin(), img.lists[l].end());
    };
    int64_t mismatches = 0;
    for (size_t t = 0; t < tables_.size(); ++t) {
        for (const auto &[k, v] : img.tables[t])
            mismatches += keyMatches(t, k, img) ? 0 : 1;
    }
    for (size_t l = 0; l < lists_.size(); ++l)
        mismatches += listMatches(l) ? 0 : 1;

    // Newest first: each undo step moves the model one write back.
    while (mismatches != 0) {
        if (log_.empty())
            return false;
        const Undo u = log_.back();
        log_.pop_back();
        const bool keyed = u.op == Op::Put || u.op == Op::Erase;
        const bool before =
            keyed ? keyMatches(u.id, u.key, img) : listMatches(u.id);
        undo(u);
        const bool after =
            keyed ? keyMatches(u.id, u.key, img) : listMatches(u.id);
        mismatches += static_cast<int64_t>(before) - after;
    }
    return true;
}

} // namespace perfbench
