// The shared persistent work queue the matrix workers coordinate through.
//
// The queue is a directory of per-cell files; there is no broker process and
// no shared memory, so any number of forked (or entirely unrelated) worker
// processes can cooperate on one work dir:
//
//   queue/cell-<index>.lock      claim marker, held via flock (FileLock)
//   queue/cell-<index>.summary   done marker: the sealed PSMC cell summary
//
// Claim protocol: a worker scans cells in index order; for each cell whose
// summary is missing it tries a non-blocking flock on the lock file.
// Holding the lock it re-checks the summary (another worker may have
// finished the cell between the scan and the claim), runs the cell, writes
// the summary atomically, and releases.  Because flock dies with its holder,
// a SIGKILL'd worker's claim evaporates immediately and the cell is
// reclaimed by the next scanner — which resumes the cell's campaign from its
// checkpoints rather than starting over.  A summary is only ever written
// whole (tmp + rename) and is fingerprint-bound, so "summary exists and
// validates" is a crash-safe done predicate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "matrix/cell.h"
#include "util/atomic_io.h"
#include "util/status.h"

namespace pathsel::matrix {

// Layout of a matrix work dir.
[[nodiscard]] std::string queue_dir(const std::string& work_dir);
[[nodiscard]] std::string cells_dir(const std::string& work_dir);
[[nodiscard]] std::string datasets_dir(const std::string& work_dir);
[[nodiscard]] std::string report_path(const std::string& work_dir);
[[nodiscard]] std::string grid_file_path(const std::string& work_dir);
[[nodiscard]] std::string cell_lock_path(const std::string& work_dir,
                                         std::size_t index);
[[nodiscard]] std::string cell_summary_path(const std::string& work_dir,
                                            std::size_t index);
/// The cell's private directory (artifacts), named by index and fingerprint
/// so an edited grid can never collide with stale artifacts.
[[nodiscard]] std::string cell_work_dir(const std::string& work_dir,
                                        std::size_t index,
                                        std::uint64_t cell_fp);

/// Tries to claim a cell; a non-held() lock means another live process owns
/// it right now.
[[nodiscard]] Result<FileLock> try_claim_cell(const std::string& work_dir,
                                              std::size_t index);

/// Loads a cell summary and validates it against the expected identity:
/// kIoError when missing/unreadable, kParseError when torn or corrupt,
/// kInvalidArgument when it belongs to a different grid, cell, or index
/// (stale state from an edited grid).
[[nodiscard]] Result<CellSummary> load_valid_summary(
    const std::string& work_dir, std::size_t index, std::uint64_t grid_fp,
    std::uint64_t cell_fp);

}  // namespace pathsel::matrix
