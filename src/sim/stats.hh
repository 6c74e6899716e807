/**
 * @file
 * gem5-style statistics package.
 *
 * Statistics are declared as members of a stats::Group (every SimObject
 * is one), registered with name and description, and dumped as
 * "group.name value # desc" lines, matching gem5's stats.txt format.
 */

#ifndef G5P_SIM_STATS_HH
#define G5P_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace g5p::sim::stats
{

class Group;
class Info;

/**
 * The one traversal over a stats hierarchy. Every consumer — the
 * stats.txt dump, checkpoint snapshots, golden-fixture digests, the
 * telemetry exporter — implements this instead of walking a group's
 * stats and childGroups() by hand, so dotted naming and visit order
 * are defined in exactly one place (Group::visit).
 *
 * Order: a group's own stats in registration order (stat() then its
 * value() calls), then its children recursively.
 */
class Visitor
{
  public:
    virtual ~Visitor() = default;

    /** Entering @p group; @p path is its dotted prefix, e.g.
     *  "system.cpu0." (empty at a relative-visit root). */
    virtual void beginGroup(const Group &group,
                            const std::string &path)
    {
    }

    virtual void endGroup(const Group &group) {}

    /** One registered stat; @p dotted is path + name (mutable so
     *  restore-style visitors work from the same traversal). */
    virtual void stat(Info &stat, const std::string &dotted) {}

    /** One printable value of a stat: scalars and formulas once
     *  under their dotted name, vectors once per element under
     *  "dotted::subname". */
    virtual void value(const std::string &dotted, double value,
                       const Info &stat)
    {
    }
};

/** Base class for all statistic values. */
class Info
{
  public:
    virtual ~Info() = default;

    /** Register name/description (called via Group::addStat). */
    void setInfo(std::string name, std::string desc);

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Scalar reduction of the stat (sum for vectors). */
    virtual double total() const = 0;

    /** Reset to zero. */
    virtual void reset() = 0;

    /** Emit this stat's printable values to @p v (see
     *  Visitor::value). */
    virtual void visitValues(Visitor &v,
                             const std::string &dotted) const = 0;

    /**
     * Raw sample values for checkpointing. Empty means the stat holds
     * no state of its own (Formula) and is skipped on restore.
     */
    virtual std::vector<double> snapshotValues() const { return {}; }

    /** Inverse of snapshotValues; ignores mismatched shapes. */
    virtual void restoreValues(const std::vector<double> &) {}

  private:
    std::string name_ = "?";
    std::string desc_;
};

/** A single accumulating value. */
class Scalar : public Info
{
  public:
    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }
    double total() const override { return value_; }
    void reset() override { value_ = 0; }
    void visitValues(Visitor &v,
                     const std::string &dotted) const override;

    std::vector<double>
    snapshotValues() const override
    {
        return {value_};
    }

    void
    restoreValues(const std::vector<double> &v) override
    {
        if (v.size() == 1)
            value_ = v[0];
    }

  private:
    double value_ = 0;
};

/** A fixed-length vector of accumulating values. */
class Vector : public Info
{
  public:
    /** Size the vector (must be called before use). */
    void init(std::size_t n) { values_.assign(n, 0.0); }

    double &operator[](std::size_t i) { return values_[i]; }
    double operator[](std::size_t i) const { return values_[i]; }

    std::size_t size() const { return values_.size(); }

    /** Optional per-element names for printing. */
    void setSubnames(std::vector<std::string> names);

    double total() const override;
    void reset() override;
    void visitValues(Visitor &v,
                     const std::string &dotted) const override;

    std::vector<double>
    snapshotValues() const override
    {
        return values_;
    }

    void
    restoreValues(const std::vector<double> &v) override
    {
        if (v.size() == values_.size())
            values_ = v;
    }

  private:
    std::vector<double> values_;
    std::vector<std::string> subnames_;
};

/** A derived value computed on demand from other stats. */
class Formula : public Info
{
  public:
    /** Bind the computation. */
    void functor(std::function<double()> fn) { fn_ = std::move(fn); }

    double total() const override { return fn_ ? fn_() : 0.0; }
    void reset() override {}
    void visitValues(Visitor &v,
                     const std::string &dotted) const override;

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics, hierarchical via parent pointers.
 * SimObject derives from Group, giving "cpu0.dcache.hits"-style names.
 */
class Group
{
  public:
    explicit Group(Group *parent = nullptr, std::string name = "");
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Register @p stat under this group. */
    void addStat(Info *stat, const std::string &name,
                 const std::string &desc);

    /** Fully qualified prefix like "system.cpu0.". */
    std::string statPrefix() const;

    const std::string &groupName() const { return groupName_; }

    /**
     * Walk this subtree with fully qualified dotted names (rooted at
     * statPrefix()). The single traversal every stats consumer is
     * built on.
     */
    void visit(Visitor &v) const;

    /**
     * Walk with names relative to @p rootPath instead — pass "" for
     * group-relative names (checkpoint sections name stats relative
     * to their object). @p rootPath must be empty or end in '.'.
     */
    void visit(Visitor &v, const std::string &rootPath) const;

    /** Dump this group and all children in registration order. */
    void dumpStats(std::ostream &os) const;

    /** Reset this group and all children. */
    void resetStats();

    /** Hook for subclasses to register stats lazily (gem5 regStats). */
    virtual void regStats() {}

    const std::vector<Group *> &childGroups() const { return children_; }

    /** Position of @p child in childGroups(); npos if absent. */
    std::size_t childIndex(const Group *child) const;

    /**
     * Move @p child (already a child of this group) to @p index in
     * childGroups(). Dump and visit order follow registration order,
     * so a replacement object constructed later than its predecessor
     * (CPU-model switch) can reclaim the original slot and keep
     * stats.txt layout identical to a never-switched machine.
     */
    void placeChildAt(Group *child, std::size_t index);

    /** Look up a stat by dotted suffix within this subtree. */
    const Info *findStat(const std::string &dotted) const;

  private:
    Group *parent_;
    std::string groupName_;
    std::vector<Info *> stats_;
    std::vector<Group *> children_;
};

} // namespace g5p::sim::stats

#endif // G5P_SIM_STATS_HH
