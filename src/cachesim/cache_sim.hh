/**
 * @file
 * Structural cache and TLB simulation.
 *
 * Where the interval model (lhr::cache) evaluates analytic miss
 * curves, this module simulates actual set-associative arrays with
 * LRU replacement, access by access. It exists to (a) characterize
 * synthetic traces the way hardware event counters characterize real
 * executions, and (b) cross-validate the analytic curves
 * (lhrlab run ablation_tracesim).
 *
 * A cache array is one flat vector of tags, each set's ways kept in
 * recency order (most recent first) with invalid ways, marked by a
 * sentinel tag, at the tail. A hit rotates its way to the front and
 * a miss shifts the set down one and writes the front, so the tail
 * is always the victim: hit/miss decisions are those of an explicit
 * per-set recency list, with one 8-byte word per line and no
 * allocation on the access path.
 */

#ifndef LHR_CACHESIM_CACHE_SIM_HH
#define LHR_CACHESIM_CACHE_SIM_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lhr
{

/** One set-associative, true-LRU cache array. */
class CacheArray
{
  public:
    /**
     * @param capacity_kb total capacity
     * @param ways associativity (capacity must cover >= 1 set)
     * @param line_bytes line size
     */
    CacheArray(double capacity_kb, int ways, int line_bytes = 64);

    /**
     * Access a byte address; returns true on hit. Updates LRU.
     * Inline so PipelineSim's issue loop sees the whole L1-hit fast
     * path without a call per memory op.
     */
    bool access(uint64_t addr)
    {
        ++accessCount;
        const uint64_t line = addr >> lineShift;
        const size_t set = static_cast<size_t>(line & setMask);
        const uint64_t tag = line >> setShift;

        uint64_t *setTags = &tags[set * wayCount];
        for (size_t way = 0; way < wayCount; ++way) {
            if (setTags[way] == tag) {
                // Hit: move to most recent.
                moveToFront(setTags, way, tag);
                return true;
            }
        }
        // Miss: the tail way is the least recently used one, or an
        // invalid way when the set is not yet full.
        ++missCount;
        moveToFront(setTags, wayCount - 1, tag);
        return false;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }
    double missRatio() const;

    size_t sets() const { return setCount; }
    size_t associativity() const { return wayCount; }

    /** Invalidate everything and clear statistics. */
    void reset();

  private:
    /** Tag of an invalid way; no address maps to it (see ctor). */
    static constexpr uint64_t invalidTag = ~uint64_t{0};

    /** Slide ways [0, way) down by one and put tag at the front. */
    static void moveToFront(uint64_t *setTags, size_t way, uint64_t tag)
    {
        for (; way > 0; --way)
            setTags[way] = setTags[way - 1];
        setTags[0] = tag;
    }

    size_t wayCount;
    size_t setCount;
    unsigned lineShift;          ///< log2(line bytes)
    unsigned setShift;           ///< log2(set count)
    uint64_t setMask;            ///< setCount - 1
    uint64_t accessCount;
    uint64_t missCount;
    /**
     * setCount x wayCount tags, row-major by set, each set most
     * recent first; invalidTag marks the (trailing) invalid ways.
     */
    std::vector<uint64_t> tags;
};

/** A fully-associative LRU TLB. */
class TlbArray
{
  public:
    /**
     * @param entries number of TLB entries
     * @param page_bytes page size (4KB on the study's systems)
     */
    explicit TlbArray(int entries, int page_bytes = 4096);

    /** Access a byte address; returns true on TLB hit. */
    bool access(uint64_t addr);

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }

    /**
     * Model GC-style displacement: evict a fraction of the TLB, as
     * a collector scanning the heap on the same core does to the
     * application (the paper's db observation, section 3.1). The
     * most recently used entries survive.
     */
    void displace(double fraction);

    void reset();

  private:
    size_t entryCount;
    unsigned pageShift;          ///< log2(page bytes)
    uint64_t accessCount;
    uint64_t missCount;
    uint64_t stamp;              ///< monotonic access clock
    size_t liveCount;            ///< valid entries
    std::vector<uint64_t> pages; ///< entryCount page numbers
    std::vector<uint64_t> ages;  ///< last-touch stamp; 0 = invalid
    std::vector<uint32_t> freeSlots;           ///< invalid slots
    // lhrlint:allow-next-line(det-unordered): page->slot lookups only — victims are chosen by the clock hand, never by map order
    std::unordered_map<uint64_t, uint32_t> pageIndex; ///< page->slot
};

/**
 * A multi-level simulated hierarchy: each level is accessed only on
 * a miss in the previous one (inclusive, no prefetching).
 */
class HierarchySim
{
  public:
    /** Level specs as (capacityKb, ways) pairs, innermost first. */
    explicit HierarchySim(
        const std::vector<std::pair<double, int>> &levels);

    /** Access an address through the hierarchy. */
    void access(uint64_t addr) { accessHitLevel(addr); }

    /**
     * Access an address and report where it hit: the level index,
     * or -1 when it missed every level (DRAM).
     */
    int accessHitLevel(uint64_t addr)
    {
        for (size_t level = 0; level < arrays.size(); ++level) {
            if (arrays[level].access(addr))
                return static_cast<int>(level);
        }
        return -1;
    }

    /** Misses of one level per kilo-instruction. */
    double mpki(size_t level, uint64_t instructions) const;

    size_t levelCount() const { return arrays.size(); }
    const CacheArray &level(size_t i) const { return arrays.at(i); }

    void reset();

  private:
    std::vector<CacheArray> arrays;
};

} // namespace lhr

#endif // LHR_CACHESIM_CACHE_SIM_HH
