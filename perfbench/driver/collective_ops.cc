/**
 * @file
 * Collective cells shared by the collectives workload and the MagPIe
 * probe: generated inputs, the rank process that calls one collective
 * and digests its outputs, and the driver's own reference results.
 */

#include "collective_ops.h"

#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

using magpie::Table;
using magpie::Vec;

constexpr Rank kRoot = 0;

using magpie::Table;
using magpie::Vec;

/** The generated inputs of one call: small integers, so every sum is
 *  exact whatever order an algorithm combines in. */
struct CallInputs
{
    std::uint64_t seed = 0;

    double
    value(Rank rank, int row, int i) const
    {
        std::uint64_t h = splitmix(
            seed ^ splitmix((static_cast<std::uint64_t>(rank) << 40) ^
                            (static_cast<std::uint64_t>(row) << 20) ^
                            static_cast<std::uint64_t>(i)));
        return static_cast<double>(static_cast<int>(h % 129) - 64);
    }

    Vec
    vec(Rank rank, int row, int n) const
    {
        Vec v(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            v[static_cast<std::size_t>(i)] = value(rank, row, i);
        return v;
    }
};

/** Ragged lengths of the *v operations. */
int
raggedLen(int n, Rank a, Rank b = 0)
{
    return n + (a + b) % 3;
}

/** Row length of the alltoall-style operations. */
int
rowLen(int n)
{
    return std::max(1, n / 32);
}

/** The inputs rank @p self passes in one call of @p op. */
struct RankInputs
{
    Vec vec;
    Table table;
};

RankInputs
inputsFor(magpie::Op op, const CallInputs &in, Rank self, int n)
{
    using magpie::Op;
    RankInputs r;
    switch (op) {
    case Op::barrier:
        break;
    case Op::bcast:
        if (self == kRoot)
            r.vec = in.vec(self, 0, n);
        break;
    case Op::reduce:
    case Op::allreduce:
    case Op::scan:
    case Op::gather:
    case Op::allgather:
        r.vec = in.vec(self, 0, n);
        break;
    case Op::gatherv:
    case Op::allgatherv:
        r.vec = in.vec(self, 0, raggedLen(n, self));
        break;
    case Op::scatter:
    case Op::scatterv:
        if (self == kRoot) {
            for (Rank d = 0; d < kCollRanks; ++d)
                r.table.push_back(in.vec(
                    self, d,
                    op == Op::scatter ? n : raggedLen(n, d)));
        }
        break;
    case Op::alltoall:
    case Op::reduce_scatter:
        for (Rank d = 0; d < kCollRanks; ++d)
            r.table.push_back(in.vec(self, d, rowLen(n)));
        break;
    case Op::alltoallv:
        for (Rank d = 0; d < kCollRanks; ++d)
            r.table.push_back(
                in.vec(self, d, raggedLen(rowLen(n), self, d)));
        break;
    }
    return r;
}

/** Word-wise FNV-style digest of one output (cheap enough to run
 *  inside the timed jobs; it only has to notice a changed value). */
std::uint64_t
digestOf(const Vec &v)
{
    std::uint64_t h = kFnvOffset ^ v.size();
    for (double d : v)
        h = (h ^ bitsOf(d)) * 1099511628211ull;
    return h;
}

std::uint64_t
digestOf(const Table &t)
{
    std::uint64_t h = kFnvOffset ^ t.size();
    for (const Vec &row : t)
        h = (h ^ digestOf(row)) * 1099511628211ull;
    return h;
}

/**
 * Fold into h[self] what MPI semantics say each rank receives from one
 * call: the driver's own reference, computed from the generated inputs.
 */
void
expectedDigests(std::vector<std::uint64_t> &h, magpie::Op op,
                const CallInputs &in, int n)
{
    using magpie::Op;
    const int p = kCollRanks;
    std::vector<RankInputs> x;
    for (Rank r = 0; r < p; ++r)
        x.push_back(inputsFor(op, in, r, n));
    auto add = [](Vec &acc, const Vec &c) {
        if (acc.empty()) {
            acc = c;
            return;
        }
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] += c[i];
    };
    switch (op) {
    case Op::barrier:
        return;
    case Op::bcast:
        for (Rank self = 0; self < p; ++self)
            h[self] = fold(h[self], digestOf(x[kRoot].vec));
        return;
    case Op::reduce:
    case Op::allreduce: {
        Vec sum;
        for (Rank r = 0; r < p; ++r)
            add(sum, x[r].vec);
        const std::uint64_t d = digestOf(sum);
        for (Rank self = 0; self < p; ++self)
            h[self] = fold(h[self], op == Op::reduce && self != kRoot
                                        ? digestOf(Vec{})
                                        : d);
        return;
    }
    case Op::scan: {
        Vec acc;
        for (Rank self = 0; self < p; ++self) {
            add(acc, x[self].vec);
            h[self] = fold(h[self], digestOf(acc));
        }
        return;
    }
    case Op::gather:
    case Op::gatherv:
    case Op::allgather:
    case Op::allgatherv: {
        const bool rooted = op == Op::gather || op == Op::gatherv;
        Table all;
        for (Rank r = 0; r < p; ++r)
            all.push_back(x[r].vec);
        const std::uint64_t d = digestOf(all);
        for (Rank self = 0; self < p; ++self)
            h[self] = fold(h[self],
                           rooted && self != kRoot ? digestOf(Table{}) : d);
        return;
    }
    case Op::scatter:
    case Op::scatterv:
        for (Rank self = 0; self < p; ++self)
            h[self] = fold(h[self], digestOf(x[kRoot].table[self]));
        return;
    case Op::alltoall:
    case Op::alltoallv:
        for (Rank self = 0; self < p; ++self) {
            Table t;
            for (Rank r = 0; r < p; ++r)
                t.push_back(x[r].table[self]);
            h[self] = fold(h[self], digestOf(t));
        }
        return;
    case Op::reduce_scatter:
        for (Rank self = 0; self < p; ++self) {
            Vec sum;
            for (Rank r = 0; r < p; ++r)
                add(sum, x[r].table[self]);
            h[self] = fold(h[self], digestOf(sum));
        }
        return;
    }
}

CallInputs
callInputs(std::uint64_t seed, std::size_t job, int call)
{
    return {splitmix(seed ^ splitmix(job * 16 + static_cast<unsigned>(call)))};
}

} // namespace

std::vector<std::uint64_t>
expectedOutputs(magpie::Op op, int n, std::uint64_t seed, std::size_t job)
{
    std::vector<std::uint64_t> want(kCollRanks, kFnvOffset);
    for (int call = 0; call < kCollCalls; ++call)
        expectedDigests(want, op, callInputs(seed, job, call), n);
    return want;
}

sim::Task<void>
collectiveRank(magpie::Communicator *comm, magpie::Op op, int n,
               std::uint64_t seed, std::size_t job, Rank self,
               std::uint64_t *out, bool corrupt)
{
    using magpie::Op;
    using magpie::ReduceOp;
    std::uint64_t h = kFnvOffset;
    for (int call = 0; call < kCollCalls; ++call) {
        RankInputs x = inputsFor(op, callInputs(seed, job, call), self, n);
        Vec v;
        Table t;
        bool is_table = false;
        switch (op) {
        case Op::barrier:
            co_await comm->barrier(self);
            break;
        case Op::bcast:
            v = co_await comm->bcast(self, kRoot, std::move(x.vec));
            break;
        case Op::reduce:
            v = co_await comm->reduce(self, kRoot, std::move(x.vec),
                                      ReduceOp::sum());
            break;
        case Op::allreduce:
            v = co_await comm->allreduce(self, std::move(x.vec),
                                         ReduceOp::sum());
            break;
        case Op::scan:
            v = co_await comm->scan(self, std::move(x.vec),
                                    ReduceOp::sum());
            break;
        case Op::gather:
            t = co_await comm->gather(self, kRoot, std::move(x.vec));
            is_table = true;
            break;
        case Op::gatherv:
            t = co_await comm->gatherv(self, kRoot, std::move(x.vec));
            is_table = true;
            break;
        case Op::allgather:
            t = co_await comm->allgather(self, std::move(x.vec));
            is_table = true;
            break;
        case Op::allgatherv:
            t = co_await comm->allgatherv(self, std::move(x.vec));
            is_table = true;
            break;
        case Op::scatter:
            v = co_await comm->scatter(self, kRoot, std::move(x.table));
            break;
        case Op::scatterv:
            v = co_await comm->scatterv(self, kRoot, std::move(x.table));
            break;
        case Op::alltoall:
            t = co_await comm->alltoall(self, std::move(x.table));
            is_table = true;
            break;
        case Op::alltoallv:
            t = co_await comm->alltoallv(self, std::move(x.table));
            is_table = true;
            break;
        case Op::reduce_scatter:
            v = co_await comm->reduceScatter(self, std::move(x.table),
                                             ReduceOp::sum());
            break;
        }
        if (corrupt && self == kRoot && call == 0) {
            if (!v.empty())
                v[0] += 1;
            else if (!t.empty() && !t[0].empty())
                t[0][0] += 1;
        }
        if (op != Op::barrier)
            h = fold(h, is_table ? digestOf(t) : digestOf(v));
    }
    *out = h;
}


} // namespace perfbench
