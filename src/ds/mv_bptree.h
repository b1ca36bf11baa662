#ifndef ASYMNVM_DS_MV_BPTREE_H_
#define ASYMNVM_DS_MV_BPTREE_H_

/**
 * @file
 * Multi-version B+tree (Sections 6.2 and 8.3), in the style of
 * append-only/CouchDB B-trees the paper cites: every insert copies the
 * root-to-leaf path into fresh nodes and publishes the new version with
 * one atomic root swap. Value cells are immutable as well (an update
 * allocates a new cell). Leaf chaining is not maintained across versions
 * (scans traverse the tree), the usual trade-off of append-only B-trees.
 */

#include <span>
#include <vector>

#include "ds/mv_common.h"

namespace asymnvm {

/** A persistent multi-version (lock-free for readers) B+tree. */
class MvBpTree : public MvBase
{
  public:
    static constexpr uint32_t kFanout = 32;

    MvBpTree() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, MvBpTree *out,
                         const DsOptions &opt = {});
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, MvBpTree *out,
                       const DsOptions &opt = {});

    /** Insert or update; a depth-1 run of insertAsync. */
    Status insert(Key key, const Value &v);

    /**
     * Insert/update as a resumable op. Phase A descends with suspendable
     * reads; phase B runs the path-copy write-out (retires, cell + node
     * allocs, splits, root staging) inline after read-set validation.
     * Every MV write supersedes the whole root path, so window writes
     * to the same tree are ordered by one per-structure WindowGate
     * rather than per-key gates — sibling *reads* and ops on other
     * structures still overlap freely.
     */
    OpTask insertAsync(Key key, Value v) { return insertOp(key, v, false); }

    /** Pipelined multi-insert; results[i] receives kvs[i]'s status. */
    Status insertMany(std::span<const std::pair<Key, Value>> kvs,
                      Status *results);

    /** Vector insertion (sorted batch with path pinning). */
    Status insertBatch(std::span<const std::pair<Key, Value>> kvs);

    /** Lock-free snapshot lookup; a depth-1 run of findAsync. */
    Status find(Key key, Value *out);

    /**
     * Point lookup as a resumable op: the descent co_awaits every
     * remote node read so executePipelined can overlap several lookups
     * per round trip. The root fetch stays synchronous (for pure
     * readers it is an atomic meta verb, not a gatherable read); each
     * op traverses the snapshot root it fetched.
     */
    OpTask findAsync(Key key, Value *out);

    /** Pipelined multi-lookup; results[i] receives keys[i]'s status. */
    Status findMany(std::span<const Key> keys, Value *vals,
                    Status *results);

    /** Remove; NotFound when absent. A depth-1 run of eraseAsync. */
    Status erase(Key key);

    /**
     * Remove as a resumable op: suspendable descent, then the path-copy
     * tail inline after validation. Same per-structure write ordering
     * as insertAsync.
     */
    OpTask eraseAsync(Key key);

    /** Pipelined multi-erase; results[i] receives keys[i]'s status. */
    Status eraseMany(std::span<const Key> keys, Status *results);

    bool contains(Key key);
    uint64_t size() const { return count_; }

  private:
    MvBpTree(FrontendSession &s, NodeId backend, std::string name,
             DsId id, const DsOptions &opt)
        : MvBase(s, backend, std::move(name), id, opt)
    {}

    struct Node
    {
        uint16_t is_leaf;
        uint16_t count;
        uint32_t pad;
        uint64_t unused; //!< no leaf chain across versions
        Key keys[kFanout];
        uint64_t children[kFanout];
    };
    static_assert(sizeof(Node) == 16 + 16 * kFanout);

    /** A split to propagate upward: separator and new right half. */
    struct Split
    {
        bool happened = false;
        Key sep_key = 0;
        uint64_t right_raw = 0;
    };

    /** One node of a write descent and the route taken out of it. */
    struct PathEnt
    {
        uint64_t raw;
        Node node;
        uint32_t idx; //!< child index taken (internal nodes)
    };

    void install();

    /**
     * The insert coroutine. @p pin marks a member of a vector insertion:
     * its descent pins the path for the batch's later keys, and it runs
     * under the batch's single lock acquisition.
     */
    OpTask insertOp(Key key, Value v, bool pin);

    /**
     * Insert (@p key, @p child) into @p node (a private copy) and
     * allocate the new version at *new_raw. A full node splits: *new_raw
     * is then the left half and @p split carries the right one.
     */
    Status copyInsert(Node &node, Key key, uint64_t child, uint64_t *new_raw,
                      Split *split);

    static uint32_t routeIndex(const Node &n, Key key);

    uint64_t count_ = 0; //!< aux1
};

} // namespace asymnvm

#endif // ASYMNVM_DS_MV_BPTREE_H_
