#include "graph/canonical.hpp"

#include <algorithm>
#include <sstream>

#include "graph/analysis.hpp"
#include "support/frame.hpp"

namespace dtop {

std::string to_string(const PortPath& path) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) os << " ";
    os << static_cast<int>(path[i].out) << ">" << static_cast<int>(path[i].in);
  }
  os << "]";
  return os.str();
}

CanonicalTree canonicalize(const PortGraph& g, NodeId source,
                           const std::vector<std::uint32_t>& dist) {
  CanonicalTree t;
  t.source = source;
  t.dist = dist;
  t.parent_wire.assign(g.num_nodes(), kNoWire);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == source || t.dist[v] == kUnreachable) continue;
    // Candidate parent wires arrive from nodes at distance dist[v]-1; the
    // flood delivers them all in the same tick, and the snake rules accept
    // the one on the lowest-numbered in-port.
    for (Port p = 0; p < g.delta(); ++p) {
      const WireId w = g.in_wire(v, p);
      if (w == kNoWire) continue;
      const Wire& wr = g.wire(w);
      if (t.dist[wr.from] + 1 == t.dist[v]) {
        t.parent_wire[v] = w;  // lowest in-port first: ports scanned in order
        break;
      }
    }
    DTOP_CHECK(t.parent_wire[v] != kNoWire, "BFS parent missing");
  }
  return t;
}

CanonicalTree canonical_bfs_tree(const PortGraph& g, NodeId source) {
  return canonicalize(g, source, bfs_distances(g, source));
}

PortPath canonical_path(const PortGraph& g, const CanonicalTree& tree,
                        NodeId v) {
  DTOP_REQUIRE(tree.dist[v] != kUnreachable,
               "canonical_path: node unreachable from source");
  PortPath path;
  NodeId cur = v;
  while (cur != tree.source) {
    const Wire& wr = g.wire(tree.parent_wire[cur]);
    path.push_back(PortStep{wr.out_port, wr.in_port});
    cur = wr.from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

NodeId walk_path(const PortGraph& g, NodeId start, const PortPath& path) {
  NodeId cur = start;
  for (const PortStep& s : path) {
    const WireId w = g.out_wire(cur, s.out);
    DTOP_CHECK(w != kNoWire, "walk_path: out-port not connected");
    const Wire& wr = g.wire(w);
    DTOP_CHECK(wr.in_port == s.in, "walk_path: in-port mismatch");
    cur = wr.to;
  }
  return cur;
}

CanonicalForm canonical_form(const PortGraph& g, NodeId root) {
  DTOP_REQUIRE(root < g.num_nodes(), "canonical_form: root out of range");
  const CanonicalTree tree = canonical_bfs_tree(g, root);
  const NodeId n = g.num_nodes();

  // Canonical root paths name nodes uniquely (walking a path from the root
  // is deterministic), so sorting them yields a total order — the root's
  // empty path first, then lexicographically by (out, in) steps. Distances
  // are path lengths, so the order is also BFS-level compatible.
  std::vector<PortPath> paths(n);
  for (NodeId v = 0; v < n; ++v) {
    DTOP_REQUIRE(tree.dist[v] != kUnreachable,
                 "canonical_form: node " + std::to_string(v) +
                     " unreachable from root " + std::to_string(root));
    paths[v] = canonical_path(g, tree, v);
  }
  CanonicalForm form;
  form.order.resize(n);
  for (NodeId v = 0; v < n; ++v) form.order[v] = v;
  std::sort(form.order.begin(), form.order.end(),
            [&](NodeId a, NodeId b) { return paths[a] < paths[b]; });
  std::vector<NodeId> rank(n);
  for (NodeId r = 0; r < n; ++r) rank[form.order[r]] = r;

  // Serialize the whole network in canonical ranks. Edge order is fixed by
  // (rank, out-port), so the bytes are a pure function of the rooted
  // port-labelled structure.
  std::ostringstream os;
  os << "dtop-cf v1 " << static_cast<int>(g.delta()) << " " << n << " "
     << g.num_wires() << "\n";
  for (NodeId r = 0; r < n; ++r) {
    const NodeId v = form.order[r];
    for (Port p = 0; p < g.delta(); ++p) {
      const WireId w = g.out_wire(v, p);
      if (w == kNoWire) continue;
      const Wire& wr = g.wire(w);
      os << r << " " << static_cast<int>(p) << " " << rank[wr.to] << " "
         << static_cast<int>(wr.in_port) << "\n";
    }
  }
  form.bytes = os.str();
  form.hash = fnv1a64(form.bytes);
  return form;
}

std::uint64_t canonical_hash(const PortGraph& g, NodeId root) {
  return canonical_form(g, root).hash;
}

}  // namespace dtop
