#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

/**
 * @file
 * Reference model of one session's structures for the correctness
 * oracle.
 *
 * Keyed tables are maps and lists are deques; every mutation since the
 * session's last acknowledged group commit stays on an undo log. After
 * the back-end power failure and recovery, the recovered image must
 * equal the model rolled back to some point at or after that commit:
 * every acknowledged write survives, and the unacknowledged tail (whose
 * op logs recovery may or may not replay) survives as a prefix, in
 * order.
 */

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace perfbench {

using asymnvm::Key;
using asymnvm::Value;

class Model
{
  public:
    using Table = std::unordered_map<Key, Value>;
    using List = std::deque<Value>;

    Model(size_t tables, size_t lists) : tables_(tables), lists_(lists) {}

    Table &table(size_t t) { return tables_[t]; }
    List &list(size_t l) { return lists_[l]; }

    /** Expected lookup result; NotFound when the key is absent. */
    asymnvm::Status get(size_t t, Key k, Value *out) const;

    /** Upsert by request @p req. */
    void put(size_t t, Key k, const Value &v, uint64_t req);

    /** Remove by request @p req; false when the key was absent. */
    bool erase(size_t t, Key k, uint64_t req);

    void pushBack(size_t l, const Value &v, uint64_t req);
    /** Remove the back (stack pop); nullopt when empty. */
    std::optional<Value> popBack(size_t l, uint64_t req);
    /** Remove the front (dequeue); nullopt when empty. */
    std::optional<Value> popFront(size_t l, uint64_t req);

    /**
     * A group commit completed during request @p req: every earlier
     * request is acknowledged, so its undo records are dropped. @p req's
     * own records stay, since the commit may have landed between its
     * writes.
     */
    void ack(uint64_t req);

    /** The recovered image of one session, as read back. */
    struct Image
    {
        std::vector<std::unordered_map<Key, std::optional<Value>>> tables;
        std::vector<std::vector<Value>> lists; //!< front (bottom) first
    };

    /** Every key a table held or lost since the last acknowledgement. */
    std::vector<Key> universe(size_t t) const;

    /**
     * Roll the model back until it equals @p img, whose tables must hold
     * a lookup for every universe() key; false when no point
     * at or after the last acknowledged commit matches. On success the
     * model holds the matching state.
     */
    bool matchPrefix(const Image &img);

    /** Unacknowledged writes still on the undo log. */
    size_t pending() const { return log_.size(); }

  private:
    enum class Op : uint8_t
    {
        Put,
        Erase,
        PushBack,
        PopBack,
        PopFront,
    };

    struct Undo
    {
        Op op;
        uint32_t id;
        Key key;
        std::optional<Value> old;
        uint64_t req;
    };

    bool keyMatches(size_t t, Key k, const Image &img) const;
    void undo(const Undo &u);

    std::vector<Table> tables_;
    std::vector<List> lists_;
    std::deque<Undo> log_;
};

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H_
