/**
 * @file
 * One collective cell on the 4 x 8 machine: each rank calls the
 * operation kCollCalls times on inputs generated from (seed, job,
 * call) and digests what it receives; expectedOutputs() computes the
 * same digests from MPI semantics, independently of the library.
 */

#ifndef PERFBENCH_COLLECTIVE_OPS_H_
#define PERFBENCH_COLLECTIVE_OPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "magpie/communicator.h"
#include "magpie/policy.h"
#include "sim/task.h"

namespace perfbench {

using tli::Rank;
namespace magpie = tli::magpie;
namespace sim = tli::sim;

/** Ranks of the 4 x 8 machine every collective cell runs on. */
constexpr int kCollRanks = 32;
/** Calls of the operation per rank and cell. */
constexpr int kCollCalls = 2;

/**
 * Rank @p self's process: kCollCalls calls of @p op with @p n-element
 * inputs (rows of n/32 for the all-to-all forms), the output digests
 * folded into *out in call order. @p corrupt adds 1 to one element of
 * rank 0's first output (the self-test's planted fault).
 */
sim::Task<void> collectiveRank(magpie::Communicator *comm, magpie::Op op,
                               int n, std::uint64_t seed, std::size_t job,
                               Rank self, std::uint64_t *out, bool corrupt);

/** What collectiveRank must leave in *out on each rank. */
std::vector<std::uint64_t> expectedOutputs(magpie::Op op, int n,
                                           std::uint64_t seed,
                                           std::size_t job);

} // namespace perfbench

#endif // PERFBENCH_COLLECTIVE_OPS_H_
