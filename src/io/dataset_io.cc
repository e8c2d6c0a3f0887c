#include "io/dataset_io.h"

#include <filesystem>
#include <fstream>

#include "graph/algorithms.h"
#include "io/graph_io.h"
#include "io/profile_io.h"
#include "io/visibility_io.h"
#include "util/string_util.h"

namespace sight::io {
namespace fs = std::filesystem;

Status SaveOwnerDataset(const sim::OwnerDataset& dataset,
                        const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(
        StrFormat("cannot create '%s': %s", dir.c_str(),
                  ec.message().c_str()));
  }
  SIGHT_RETURN_IF_ERROR(
      SaveGraphToFile(dataset.graph, (fs::path(dir) / "graph.txt").string()));
  SIGHT_RETURN_IF_ERROR(SaveProfilesToFile(
      dataset.profiles, (fs::path(dir) / "profiles.csv").string()));
  SIGHT_RETURN_IF_ERROR(SaveVisibilityToFile(
      dataset.visibility, static_cast<UserId>(dataset.graph.NumUsers()),
      (fs::path(dir) / "visibility.csv").string()));

  std::ofstream meta((fs::path(dir) / "meta.txt").string());
  if (!meta) return Status::Internal("cannot write meta.txt");
  meta << "owner " << dataset.owner << "\n";
  if (!meta.good()) return Status::Internal("meta write failed");
  return Status::OK();
}

Result<sim::OwnerDataset> LoadOwnerDataset(const std::string& dir) {
  sim::OwnerDataset dataset;
  SIGHT_ASSIGN_OR_RETURN(
      dataset.graph,
      LoadGraphFromFile((fs::path(dir) / "graph.txt").string()));
  // Profile and visibility rows must name users of the graph, so neither
  // table allocates past it.
  const auto num_users = static_cast<UserId>(dataset.graph.NumUsers());
  SIGHT_ASSIGN_OR_RETURN(
      dataset.profiles,
      LoadProfilesFromFile((fs::path(dir) / "profiles.csv").string(),
                           num_users));
  SIGHT_ASSIGN_OR_RETURN(
      dataset.visibility,
      LoadVisibilityFromFile((fs::path(dir) / "visibility.csv").string(),
                             num_users));

  std::ifstream meta((fs::path(dir) / "meta.txt").string());
  if (!meta) return Status::NotFound("missing meta.txt");
  std::string key;
  uint64_t owner = 0;
  if (!(meta >> key >> owner) || key != "owner") {
    return Status::InvalidArgument("meta.txt must contain 'owner <id>'");
  }
  if (owner >= dataset.graph.NumUsers()) {
    return Status::OutOfRange(StrFormat(
        "owner %llu not in graph of %zu users",
        static_cast<unsigned long long>(owner), dataset.graph.NumUsers()));
  }
  dataset.owner = static_cast<UserId>(owner);
  dataset.friends = dataset.graph.Neighbors(dataset.owner);
  SIGHT_ASSIGN_OR_RETURN(dataset.strangers,
                         TwoHopStrangers(dataset.graph, dataset.owner));
  return dataset;
}

}  // namespace sight::io
