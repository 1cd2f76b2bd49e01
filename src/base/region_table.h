// RegionTable — a fixed-capacity table of heap objects keyed by
// (node, rkey), published once and looked up without a lock.
//
// Registration is rare (collective segment creation before training);
// lookup is on every one-sided write and every slot read. So each node gets
// kMaxRegionsPerNode atomic slots: Publish stores the object's pointer with
// release ordering and Find resolves a key with one acquire load, the way an
// RDMA NIC resolves an rkey registered once. A published object is never
// moved or freed before the table is destroyed, so a pointer Find returned
// stays valid for the table's lifetime.
//
// The shmem transport's region table and the protocol checker's shadow
// registry are both this type. The slots go through the mc:: shim, so the
// model checker's shmem_region_publish harness (and the planted
// kRegionRelaxedPublish mutation) cover the one implementation.

#ifndef SRC_BASE_REGION_TABLE_H_
#define SRC_BASE_REGION_TABLE_H_

#include <atomic>  // NOLINT(malt-api) memory_order tokens only; ops go via mc::
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/base/log.h"
#include "src/base/mc.h"

namespace malt {

// Slots per node: dstorm registers two regions per node (barrier counters,
// probe scratch) plus one per segment and one per accumulator. Publishing
// past this limit is a fatal check.
inline constexpr uint32_t kMaxRegionsPerNode = 64;

template <typename T>
class RegionTable {
 public:
  explicit RegionTable(int nodes)
      : nodes_(nodes),
        slots_(std::make_unique<mc::atomic<T*>[]>(static_cast<size_t>(nodes) *
                                                   kMaxRegionsPerNode)) {}
  ~RegionTable() {
    for (size_t i = 0; i < static_cast<size_t>(nodes_) * kMaxRegionsPerNode; ++i) {
      delete slots_[i].load(std::memory_order_acquire);
    }
  }
  RegionTable(const RegionTable&) = delete;
  RegionTable& operator=(const RegionTable&) = delete;

  // Publishes `value` at (node, rkey); the table owns it from now on. The
  // slot must be empty. Release store: a reader whose acquire load in Find
  // sees the pointer also sees the constructed object and every earlier
  // Publish by this thread. Mutation kRegionRelaxedPublish drops the release
  // ordering, so a later rkey can become visible before an earlier one.
  void Publish(int node, uint32_t rkey, std::unique_ptr<T> value) {
    MALT_CHECK(node >= 0 && node < nodes_) << "bad node " << node;
    MALT_CHECK(rkey < kMaxRegionsPerNode)
        << "node " << node << " registers more than " << kMaxRegionsPerNode << " regions";
    mc::atomic<T*>& slot = slots_[Index(node, rkey)];
    MALT_CHECK(slot.load(std::memory_order_relaxed) == nullptr)
        << "rkey " << rkey << " on node " << node << " is already published";
    slot.store(value.release(), MALT_MC_MUTATE(kRegionRelaxedPublish)
                                    ? std::memory_order_relaxed
                                    : std::memory_order_release);
  }

  // The object at (node, rkey), or null when the key is out of range or not
  // yet published. Lock-free; any thread.
  T* Find(int node, uint32_t rkey) const {
    if (node < 0 || node >= nodes_ || rkey >= kMaxRegionsPerNode) {
      return nullptr;
    }
    return slots_[Index(node, rkey)].load(std::memory_order_acquire);
  }

 private:
  static size_t Index(int node, uint32_t rkey) {
    return static_cast<size_t>(node) * kMaxRegionsPerNode + rkey;
  }

  const int nodes_;
  std::unique_ptr<mc::atomic<T*>[]> slots_;  // [node * kMaxRegionsPerNode + rkey]
};

}  // namespace malt

#endif  // SRC_BASE_REGION_TABLE_H_
