/**
 * @file
 * Workload plans for the host-time benchmark.
 *
 * A workload is a fixed list of (program, VM, tier mode) runs. Every run
 * uses the bench harness's base options, so each one has an exact twin
 * in the committed goldens (tests/golden/ for tier2, tests/golden/multi/
 * for multi). A plan holds, per run, the options to execute, a one-run
 * golden document holding the twin, and the output expected from the
 * interpreter-only VM for that program.
 */

#ifndef PERFBENCH_PLAN_H
#define PERFBENCH_PLAN_H

#include <string>
#include <vector>

#include "driver/runner.h"
#include "report/json.h"

namespace perfbench {

/** One run of a workload's list. */
struct RunSpec
{
    xlvm::driver::RunOptions opts;
    bool rkt = false;          ///< MiniRkt frontend (Racket-family VMs)
    std::string label;         ///< "program/VM/mode", for messages
    std::string goldenReport;  ///< report name of the golden set
    xlvm::report::Json golden; ///< golden document holding only the twin
    std::string reference;     ///< interpreter-only output of the program
};

struct Plan
{
    std::vector<RunSpec> runs;
};

/**
 * Build the plan for @p workload: load and parse its goldens and the
 * output references from under @p root (the repository checkout). Returns
 * false and sets @p err on an unknown workload, a missing file or a run
 * without golden twin or reference.
 */
bool buildPlan(const std::string &workload, const std::string &root,
               Plan *out, std::string *err);

/**
 * Run every program of every workload on its interpreter-only VM
 * (CPython* for MiniPy, Racket* for MiniRkt) with no instruction cap and
 * write the outputs to @p path as the reference file buildPlan reads.
 */
bool recordReferences(const std::string &path, std::string *err);

} // namespace perfbench

#endif // PERFBENCH_PLAN_H
