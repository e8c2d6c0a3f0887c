// Directory-level save/load of a full OwnerDataset.
//
// Layout:
//   <dir>/graph.txt        (io/graph_io.h format)
//   <dir>/profiles.csv     (io/profile_io.h format)
//   <dir>/visibility.csv   (io/visibility_io.h format)
//   <dir>/meta.txt         ("owner <id>")
//
// This is the bring-your-own-data entry point: export your network into
// these three files and the whole pipeline runs on it.

#ifndef SIGHT_IO_DATASET_IO_H_
#define SIGHT_IO_DATASET_IO_H_

#include <string>

#include "sim/facebook_generator.h"
#include "util/status.h"

namespace sight::io {

/// Creates `dir` if needed and writes the four files.
[[nodiscard]]
Status SaveOwnerDataset(const sim::OwnerDataset& dataset,
                        const std::string& dir);

/// Loads a dataset; friends/strangers are recomputed from the graph.
/// Every profile and visibility row must name a user of the graph
/// (OutOfRange otherwise).
[[nodiscard]]
Result<sim::OwnerDataset> LoadOwnerDataset(const std::string& dir);

}  // namespace sight::io

#endif  // SIGHT_IO_DATASET_IO_H_
