#include "apps/awari/awari.h"

#include <atomic>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "apps/awari/game.h"
#include "apps/awari/key_table.h"
#include "apps/common.h"
#include "core/combiner.h"

namespace tli::apps::awari {

namespace {

constexpr int combinerTag = 5400; // +1 forwarder

/** One retrograde-analysis protocol item. */
struct Item
{
    enum class Kind : std::uint8_t { request, value };

    Kind kind = Kind::request;
    std::uint64_t key = 0;
    Value value = Value::unknown;
    std::int32_t from = -1;
};

using Combiner = core::MessageCombiner<Item>;

/**
 * One stage split over p ranks. It depends only on (stones, ranks),
 * never on the scenario, so every run of that shape shares one copy.
 */
struct StagePartition
{
    /** Owned keys of each rank, in enumeration order. */
    std::vector<std::vector<std::uint64_t>> ownKeys;
    /** Every key of the stage -> its index in its owner's ownKeys. */
    KeyTable<std::int32_t> localIndex;
};

const StagePartition &
stagePartition(int stones, int ranks)
{
    // Guarded like referenceSolver(): parallel sweep workers share
    // the memo, and std::map nodes never move.
    static std::mutex memoMutex;
    static std::map<std::pair<int, int>, StagePartition> memo;
    std::lock_guard<std::mutex> lock(memoMutex);
    auto [it, inserted] = memo.try_emplace({stones, ranks});
    StagePartition &sp = it->second;
    if (inserted) {
        std::vector<std::uint64_t> all = enumerateStage(stones);
        sp.ownKeys.resize(ranks);
        sp.localIndex.reserve(all.size());
        for (std::uint64_t key : all) {
            std::vector<std::uint64_t> &own =
                sp.ownKeys[ownerOf(key, ranks)];
            sp.localIndex.insert(key,
                                 static_cast<std::int32_t>(own.size()));
            own.push_back(key);
        }
    }
    return sp;
}

struct Run
{
    Machine &machine;
    Config cfg;
    bool optimized;
    Combiner combiner;
    double costPerUnit;

    /** The shared partition of each stage 0..maxStones. */
    std::vector<const StagePartition *> stages;
    /** Per-rank values of owned positions: [rank][stones][index]. */
    std::vector<std::vector<std::vector<Value>>> values;
    /** Per-rank protocol counters for quiescence detection. */
    std::vector<double> itemsSent;
    std::vector<double> itemsReceived;

    std::vector<StageCounts> parallelCounts;
    /** Bumped by workers on every shard — atomic under --sim-threads. */
    std::atomic<int> finished{0};
    double runTime = 0;

    Run(Machine &m, const Config &c, bool opt)
        : machine(m), cfg(c), optimized(opt),
          combiner(m.panda(), combinerTag,
                   Combiner::Config{
                       static_cast<std::size_t>(c.combineItems), 16,
                       opt}),
          costPerUnit(0),
          values(m.size(),
                 std::vector<std::vector<Value>>(c.maxStones + 1)),
          itemsSent(m.size(), 0), itemsReceived(m.size(), 0),
          parallelCounts(c.maxStones + 1)
    {
        for (int k = 0; k <= c.maxStones; ++k)
            stages.push_back(&stagePartition(k, m.size()));
    }

    /** Index of a position owned by @p self in its stage's keys. */
    int
    indexOf(Rank self, int stones, std::uint64_t key) const
    {
        const StagePartition &sp = *stages[stones];
        const std::int32_t *i = sp.localIndex.find(key);
        TLI_ASSERT(i != nullptr && sp.ownKeys[self][*i] == key,
                   "state not owned by rank ", self);
        return *i;
    }

    /** Value of a position owned by @p self, from any stage. */
    Value
    valueOf(Rank self, std::uint64_t key) const
    {
        const int k = decode(key).stonesOnBoard();
        return values[self][k][indexOf(self, k, key)];
    }
};

/** Per-rank working state of one stage. */
struct Stage
{
    Stage(Run &run, Rank self, int k)
        : stones(k), ownKeys(run.stages[k]->ownKeys[self]),
          val(run.values[self][k])
    {
        const std::size_t n = ownKeys.size();
        val.assign(n, Value::unknown);
        pending.assign(n, 0);
        subHead.assign(n, -1);
        subTail.assign(n, -1);
        cascade.reserve(n);
    }

    int stones;
    const std::vector<std::uint64_t> &ownKeys;
    /** This stage's row of Run::values. */
    std::vector<Value> &val;
    std::vector<int> pending;

    /**
     * Local states depending on a (possibly remote) successor key,
     * in CSR form: key -> id, then dependents of id in
     * depList[depStart[id], depStart[id + 1]), in insertion order.
     * A key's list is applied once, then marked done.
     */
    KeyTable<std::int32_t> depId;
    std::vector<std::int32_t> depStart;
    std::vector<std::int32_t> depList;
    std::vector<std::uint8_t> depDone;

    /** Remote ranks awaiting the value of an owned same-stage state:
     *  a FIFO list per local index, linked through subPool. */
    struct Subscriber
    {
        Rank rank;
        std::int32_t next;
    };
    std::vector<std::int32_t> subHead;
    std::vector<std::int32_t> subTail;
    std::vector<Subscriber> subPool;

    /** Determined states not yet propagated: cascade[cascadeNext..].
     *  A state is determined once, so it never outgrows n. */
    std::vector<std::int32_t> cascade;
    std::size_t cascadeNext = 0;
    double workUnits = 0;
};

/** Mark local state @p i determined and queue notifications. */
void
determine(Stage &st, int i, Value v)
{
    TLI_ASSERT(st.val[i] == Value::unknown, "double determination");
    st.val[i] = v;
    st.cascade.push_back(i);
}

/** Apply a known successor value to everything depending on it. */
void
applyKnownValue(Stage &st, std::uint64_t key, Value v)
{
    const std::int32_t *id = st.depId.find(key);
    if (id == nullptr || st.depDone[*id])
        return;
    st.depDone[*id] = 1;
    for (std::int32_t d = st.depStart[*id]; d < st.depStart[*id + 1];
         ++d) {
        const int i = st.depList[d];
        if (st.val[i] != Value::unknown)
            continue;
        if (v == Value::loss)
            determine(st, i, Value::win);
        else if (v == Value::win && --st.pending[i] == 0)
            determine(st, i, Value::loss);
        // A draw successor never resolves a state.
    }
}

/** Drain the cascade queue: notify subscribers, propagate locally. */
void
drainCascade(Run &run, Rank self, Stage &st)
{
    while (st.cascadeNext < st.cascade.size()) {
        const int i = st.cascade[st.cascadeNext++];
        const std::uint64_t key = st.ownKeys[i];
        const Value v = st.val[i];
        for (std::int32_t s = st.subHead[i]; s >= 0;
             s = st.subPool[s].next) {
            run.itemsSent[self] += 1;
            run.combiner.add(self, st.subPool[s].rank,
                             Item{Item::Kind::value, key, v, self});
        }
        st.subHead[i] = -1;
        applyKnownValue(st, key, v);
    }
}

/** Process one incoming protocol item. */
void
processItem(Run &run, Rank self, Stage &st, const Item &item)
{
    run.itemsReceived[self] += 1;
    if (item.kind == Item::Kind::value) {
        applyKnownValue(st, item.key, item.value);
        drainCascade(run, self, st);
        return;
    }
    // Request: lower stages are always solved; same-stage states may
    // still be undetermined, in which case the requester subscribes.
    // The cascade is drained after every item, so a determined state
    // has already notified its subscribers.
    const int k = decode(item.key).stonesOnBoard();
    const int i = run.indexOf(self, k, item.key);
    const Value v = run.values[self][k][i];
    if (v != Value::unknown) {
        run.itemsSent[self] += 1;
        run.combiner.add(self, item.from,
                         Item{Item::Kind::value, item.key, v, self});
        return;
    }
    TLI_ASSERT(k == st.stones, "unsolved state below the current stage");
    const auto s = static_cast<std::int32_t>(st.subPool.size());
    st.subPool.push_back({item.from, -1});
    if (st.subHead[i] < 0)
        st.subHead[i] = s;
    else
        st.subPool[st.subTail[i]].next = s;
    st.subTail[i] = s;
}

/** Build the stage structures and issue the initial requests. */
void
buildStage(Run &run, Rank self, Stage &st)
{
    const int p = run.machine.size();
    const int n = static_cast<int>(st.ownKeys.size());

    // Dependency edges (successor id, dependent state) in insertion
    // order; the CSR below keeps that order per successor. A state
    // has about two pending successors on average.
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    edges.reserve(2 * n);
    st.depId.reserve(2 * n);
    for (int i = 0; i < n; ++i) {
        Position pos = decode(st.ownKeys[i]);
        std::vector<int> moves = legalMoves(pos);
        st.workUnits += 1 + moves.size();
        if (moves.empty()) {
            determine(st, i, Value::loss);
            continue;
        }
        bool win = false;
        int pend = 0;
        for (int m : moves) {
            int captured = 0;
            Position succ = applyMove(pos, m, &captured);
            std::uint64_t sk = encode(succ);
            Rank owner = ownerOf(sk, p);
            if (captured > 0 && owner == self) {
                Value v = run.valueOf(self, sk);
                if (v == Value::loss)
                    win = true;
                else if (v != Value::win)
                    ++pend;
                continue;
            }
            // Same-stage or remote: value not yet at hand. The first
            // dependency on a remote key requests it.
            ++pend;
            auto [id, fresh] = st.depId.insert(
                sk, static_cast<std::int32_t>(st.depId.size()));
            edges.emplace_back(*id, i);
            if (owner != self && fresh) {
                run.itemsSent[self] += 1;
                run.combiner.add(self, owner,
                                 Item{Item::Kind::request, sk,
                                      Value::unknown, self});
            }
        }
        if (win)
            determine(st, i, Value::win);
        else if (pend == 0)
            determine(st, i, Value::loss);
        else
            st.pending[i] = pend;
    }

    const std::size_t ids = st.depId.size();
    st.depStart.assign(ids + 1, 0);
    for (const auto &e : edges)
        ++st.depStart[e.first + 1];
    for (std::size_t id = 0; id < ids; ++id)
        st.depStart[id + 1] += st.depStart[id];
    st.depList.resize(edges.size());
    std::vector<std::int32_t> fill(st.depStart.begin(),
                                   st.depStart.end() - 1);
    for (const auto &e : edges)
        st.depList[fill[e.first]++] = e.second;
    st.depDone.assign(ids, 0);

    drainCascade(run, self, st);
}

sim::Task<void>
worker(Run &run, Rank self)
{
    Machine &m = run.machine;
    Cpu cpu(run.costPerUnit);

    co_await m.comm().barrier(self);
    if (self == 0)
        m.startMeasurement();

    for (int k = 0; k <= run.cfg.maxStones; ++k) {
        Stage st(run, self, k);
        buildStage(run, self, st);
        run.combiner.flushAll(self);
        co_await m.compute(self, cpu, st.workUnits);

        // Quiescence loop: process whatever has arrived, then check
        // global sent/received totals; two identical consecutive
        // snapshots with sent == received mean the stage is done.
        {
            sim::PhaseScope span = m.phase(self, "quiescence");
            magpie::Vec last{-1, -1};
            for (;;) {
                double work = 0;
                while (auto batch = run.combiner.tryRecvBatch(self)) {
                    for (const Item &item : *batch)
                        processItem(run, self, st, item);
                    work += run.cfg.itemHandlingUnits * batch->size();
                }
                run.combiner.flushAll(self);
                if (work > 0)
                    co_await m.compute(self, cpu, work);

                magpie::Vec contrib{run.itemsSent[self],
                                    run.itemsReceived[self]};
                magpie::Vec totals = co_await m.comm().allreduce(
                    self, std::move(contrib),
                    magpie::ReduceOp::sum());
                if (totals == last && totals[0] == totals[1])
                    break;
                last = std::move(totals);
            }
        }

        // Whatever survived the fixpoint is a draw.
        StageCounts local;
        for (std::size_t i = 0; i < st.ownKeys.size(); ++i) {
            if (st.val[i] == Value::unknown)
                st.val[i] = Value::draw;
            switch (st.val[i]) {
              case Value::win:
                ++local.win;
                break;
              case Value::draw:
                ++local.draw;
                break;
              case Value::loss:
                ++local.loss;
                break;
              default:
                break;
            }
        }
        magpie::Vec tallies{static_cast<double>(local.win),
                            static_cast<double>(local.draw),
                            static_cast<double>(local.loss)};
        magpie::Vec total = co_await m.comm().allreduce(
            self, std::move(tallies), magpie::ReduceOp::sum());
        if (self == 0) {
            run.parallelCounts[k].win =
                static_cast<std::int64_t>(total[0]);
            run.parallelCounts[k].draw =
                static_cast<std::int64_t>(total[1]);
            run.parallelCounts[k].loss =
                static_cast<std::int64_t>(total[2]);
        }
    }

    co_await m.comm().barrier(self);
    if (self == 0) {
        run.runTime = m.endMeasurement();
        run.combiner.shutdownForwarders(self);
    }
    run.finished.fetch_add(1, std::memory_order_relaxed);
}

const Solver &
referenceSolver(int max_stones)
{
    // Guarded: parallel sweep workers (src/exec) share this memo.
    // Returned references stay valid under the lock's release: the
    // map only ever grows and std::map nodes never move.
    static std::mutex memoMutex;
    static std::map<int, Solver> memo;
    std::lock_guard<std::mutex> lock(memoMutex);
    auto it = memo.find(max_stones);
    if (it == memo.end()) {
        it = memo.emplace(max_stones, Solver(max_stones)).first;
        it->second.solve();
    }
    return it->second;
}

} // namespace

Config
Config::fromScenario(const core::Scenario &scenario)
{
    Config cfg;
    if (scenario.problemScale >= 4.0)
        cfg.maxStones = 8;
    else if (scenario.problemScale >= 2.0)
        cfg.maxStones = 7;
    else if (scenario.problemScale < 0.5)
        cfg.maxStones = 5;
    return cfg;
}

core::RunResult
runWithCombining(const core::Scenario &scenario, int max_items,
                 bool cluster_layer)
{
    Machine machine(scenario);
    Config cfg = Config::fromScenario(scenario);
    cfg.combineItems = max_items;
    const Solver &ref = referenceSolver(cfg.maxStones);

    Run state(machine, cfg, cluster_layer);
    state.costPerUnit = cfg.totalSequentialSeconds /
                        static_cast<double>(ref.workUnits());
    const int p = machine.size();
    for (Rank r = 0; r < p; ++r)
        state.combiner.startForwarder(r);
    for (Rank r = 0; r < p; ++r)
        machine.spawnWorker(r, worker(state, r));
    machine.sim().run();
    TLI_ASSERT(state.finished == p, "Awari deadlock: only ",
               state.finished.load(), " of ", p, " workers finished");

    bool ok = state.parallelCounts.size() == ref.stageCounts().size();
    for (std::size_t k = 0; ok && k < state.parallelCounts.size(); ++k)
        ok = state.parallelCounts[k] == ref.stageCounts()[k];
    double digest = Solver::digest(state.parallelCounts);
    bool verified = ok &&
                    closeEnough(digest, Solver::digest(ref.stageCounts()));

    core::RunResult result = machine.finishMeasurement(digest, verified);
    result.runTime = state.runTime;
    return result;
}

core::RunResult
run(const core::Scenario &scenario, bool optimized)
{
    Config cfg = Config::fromScenario(scenario);
    return runWithCombining(scenario, cfg.combineItems, optimized);
}

core::AppVariant
unoptimized()
{
    return {"awari", "unopt", [](const core::Scenario &s) {
                return run(s, false);
            }};
}

core::AppVariant
optimized()
{
    return {"awari", "opt", [](const core::Scenario &s) {
                return run(s, true);
            }};
}

} // namespace tli::apps::awari
