#include "io/graph_io.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace sight::io {
namespace {

constexpr const char* kMagic = "sight-graph v1";

// Reads the next content line (skipping blanks and '#' comments).
bool NextContentLine(std::istream* in, std::string* line) {
  while (std::getline(*in, *line)) {
    std::string_view trimmed = Trim(*line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    *line = std::string(trimmed);
    return true;
  }
  return false;
}

}  // namespace

Status SaveGraph(const SocialGraph& graph, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("output is required");
  *out << kMagic << "\n";
  *out << graph.NumUsers() << " " << graph.NumEdges() << "\n";
  for (UserId u = 0; u < graph.NumUsers(); ++u) {
    for (UserId v : graph.Neighbors(u)) {
      if (v > u) *out << u << " " << v << "\n";
    }
  }
  if (!out->good()) return Status::Internal("graph write failed");
  return Status::OK();
}

Result<SocialGraph> LoadGraph(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("input is required");
  std::string line;
  if (!NextContentLine(in, &line) || line != kMagic) {
    return Status::InvalidArgument(
        StrFormat("missing '%s' header", kMagic));
  }
  if (!NextContentLine(in, &line)) {
    return Status::InvalidArgument("missing user/edge counts");
  }
  size_t num_users = 0;
  size_t num_edges = 0;
  {
    std::istringstream counts(line);
    if (!(counts >> num_users >> num_edges)) {
      return Status::InvalidArgument(
          StrFormat("bad counts line: '%s'", line.c_str()));
    }
  }
  // Every id below the count must be a UserId, and the graph allocates
  // per user up front.
  if (num_users > kInvalidUser) {
    return Status::OutOfRange(StrFormat(
        "user count %zu exceeds the UserId range (%u)", num_users,
        kInvalidUser));
  }

  SocialGraph graph(num_users);
  size_t edges_read = 0;
  while (NextContentLine(in, &line)) {
    std::istringstream edge(line);
    uint64_t a = 0;
    uint64_t b = 0;
    if (!(edge >> a >> b)) {
      return Status::InvalidArgument(
          StrFormat("bad edge line: '%s'", line.c_str()));
    }
    if (a >= num_users || b >= num_users) {
      return Status::OutOfRange(StrFormat(
          "edge (%llu, %llu) references user >= %zu",
          static_cast<unsigned long long>(a),
          static_cast<unsigned long long>(b), num_users));
    }
    SIGHT_RETURN_IF_ERROR(
        graph.AddEdge(static_cast<UserId>(a), static_cast<UserId>(b)));
    ++edges_read;
  }
  if (edges_read != num_edges) {
    return Status::InvalidArgument(
        StrFormat("expected %zu edges, found %zu", num_edges, edges_read));
  }
  return graph;
}

Status SaveGraphToFile(const SocialGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return SaveGraph(graph, &out);
}

Result<SocialGraph> LoadGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  return LoadGraph(&in);
}

}  // namespace sight::io
